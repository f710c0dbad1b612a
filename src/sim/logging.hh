/**
 * @file
 * Fatal-error helpers.
 *
 * Follows the gem5 convention: fatal() is for user/configuration errors
 * (clean exit semantics, here an exception the caller may catch), panic()
 * is for internal invariant violations.
 */

#ifndef NMAPSIM_SIM_LOGGING_HH_
#define NMAPSIM_SIM_LOGGING_HH_

#include <stdexcept>
#include <string>

namespace nmapsim {

/** Error thrown for invalid user configuration (gem5 fatal()). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Error thrown for internal invariant violations (gem5 panic()). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::logic_error(what)
    {
    }
};

[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

} // namespace nmapsim

#endif // NMAPSIM_SIM_LOGGING_HH_

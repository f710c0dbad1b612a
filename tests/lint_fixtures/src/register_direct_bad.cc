// Fixture: trips register-hygiene (a direct, non-macro registrar
// declaration with an empty doc string; only that rule).

namespace nmapsim {
namespace {

struct Ctx
{
};

int
makeDirectPolicy(const Ctx &)
{
    return 0;
}

const DispatchRegistry::Registrar kDirectRegistrar("fixture-direct",
                                                   &makeDirectPolicy, "");

} // namespace
} // namespace nmapsim

/**
 * @file
 * Fixed-width ASCII table writer used by the benchmark harness to print
 * the paper's tables and figure series in a readable, diff-able form.
 */

#ifndef NMAPSIM_STATS_TABLE_HH_
#define NMAPSIM_STATS_TABLE_HH_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace nmapsim {

/** Simple column-aligned table with a header row. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double v, int precision = 2);

    /** Convenience: format a percentage with sign. */
    static std::string pct(double fraction, int precision = 1);

    /** Render the table with column padding and a separator rule. */
    void print(std::ostream &os) const;

    std::size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace nmapsim

#endif // NMAPSIM_STATS_TABLE_HH_

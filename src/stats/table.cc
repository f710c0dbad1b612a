#include "stats/table.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace nmapsim {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        fatal("Table requires at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        fatal("Table row arity mismatch");
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << '\n';
    };

    emit_row(headers_);
    std::size_t rule = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(rule, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

} // namespace nmapsim

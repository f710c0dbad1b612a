/**
 * @file
 * Unit tests for the ASCII table writer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/logging.hh"
#include "stats/table.hh"

namespace nmapsim {
namespace {

TEST(TableTest, FormatsAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    // Header separator rule present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, RowArityMismatchIsFatal)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(TableTest, EmptyHeaderIsFatal)
{
    EXPECT_THROW(Table({}), FatalError);
}

TEST(TableTest, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(TableTest, PctFormatsSignedPercent)
{
    EXPECT_EQ(Table::pct(0.105), "+10.5%");
    EXPECT_EQ(Table::pct(-0.02), "-2.0%");
}

TEST(TableTest, NumRows)
{
    Table t({"x"});
    EXPECT_EQ(t.numRows(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.numRows(), 2u);
}

} // namespace
} // namespace nmapsim

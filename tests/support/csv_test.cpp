#include "support/csv.hpp"

#include "support/error.hpp"
#include "support/str.hpp"

#include "temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using relperf::support::csv_escape;
using relperf::support::CsvWriter;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class TempFile {
public:
    TempFile() : path_(relperf::test::temp_path("csv_test.csv")) {}
    ~TempFile() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

} // namespace

TEST(CsvEscape, PlainFieldsAreUntouched) {
    EXPECT_EQ(csv_escape("hello"), "hello");
    EXPECT_EQ(csv_escape("1.5"), "1.5");
}

TEST(CsvEscape, SeparatorsAndQuotesAreQuoted) {
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
    TempFile tmp;
    {
        CsvWriter csv(tmp.path(), {"name", "value"});
        csv.add_row({"alpha", "1"});
        csv.add_row({"beta", "2"});
    }
    EXPECT_EQ(slurp(tmp.path()), "name,value\nalpha,1\nbeta,2\n");
}

TEST(CsvWriter, NumericRowFormatsRoundTrip) {
    TempFile tmp;
    {
        CsvWriter csv(tmp.path(), {"key", "a", "b"});
        csv.add_row_numeric("x", {0.1, 2.5e-7});
    }
    const std::string content = slurp(tmp.path());
    EXPECT_NE(content.find("x,0.1"), std::string::npos);
    EXPECT_NE(content.find("e-07"), std::string::npos);
}

TEST(CsvWriter, WidthMismatchThrows) {
    TempFile tmp;
    CsvWriter csv(tmp.path(), {"a", "b"});
    EXPECT_THROW(csv.add_row({"only"}), relperf::InvalidArgument);
}

TEST(CsvWriter, EmptyHeaderThrows) {
    TempFile tmp;
    EXPECT_THROW(CsvWriter(tmp.path(), {}), relperf::InvalidArgument);
}

TEST(CsvWriter, UnwritablePathThrows) {
    EXPECT_THROW(CsvWriter("/nonexistent-dir/file.csv", {"a"}), relperf::Error);
}

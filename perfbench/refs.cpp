#include "refs.hpp"

#include <cinttypes>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void malformed(const std::string& path, std::size_t line) {
    throw std::runtime_error("malformed reference file '" + path +
                             "' at line " + std::to_string(line));
}

} // namespace

std::vector<RefCase> read_refs(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("missing reference file '" + path + "'");
    std::vector<RefCase> cases;
    std::string line;
    std::size_t lineno = 0;
    const auto next = [&]() {
        if (!std::getline(in, line)) malformed(path, lineno);
        ++lineno;
    };
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#') continue;
        RefCase c;
        if (line.rfind("case ", 0) != 0) malformed(path, lineno);
        c.label = line.substr(5);

        next();
        std::istringstream counts(line);
        std::string key;
        if (!(counts >> key) || key != "counts") malformed(path, lineno);
        for (std::size_t n = 0; counts >> n;) c.counts.push_back(n);

        next();
        if (std::sscanf(line.c_str(), "digest %" SCNx64, &c.digest) != 1) {
            malformed(path, lineno);
        }

        next();
        std::size_t csv_lines = 0;
        if (std::sscanf(line.c_str(), "csv_lines %zu", &csv_lines) != 1) {
            malformed(path, lineno);
        }
        for (std::size_t i = 0; i < csv_lines; ++i) {
            next();
            c.csv += line + "\n";
        }
        next();
        if (line != "end") malformed(path, lineno);
        cases.push_back(std::move(c));
    }
    return cases;
}

void write_refs(const std::string& path, const std::string& title,
                const std::vector<RefCase>& cases) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
    out << "# " << title << "\n";
    for (const RefCase& c : cases) {
        out << "case " << c.label << "\ncounts";
        for (const std::size_t n : c.counts) out << ' ' << n;
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016" PRIx64, c.digest);
        std::size_t lines = 0;
        for (const char ch : c.csv) lines += ch == '\n';
        out << "\ndigest " << digest << "\ncsv_lines " << lines << "\n"
            << c.csv << "end\n";
    }
    if (!out) throw std::runtime_error("failed writing '" + path + "'");
}

const RefCase* find_ref(const std::vector<RefCase>& cases,
                        const std::string& label) {
    for (const RefCase& c : cases) {
        if (c.label == label) return &c;
    }
    return nullptr;
}

} // namespace perfbench

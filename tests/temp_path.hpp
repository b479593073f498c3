#pragma once
//! \file temp_path.hpp
//! Per-test unique scratch paths. ctest runs every discovered gtest case as
//! its own process, concurrently under `ctest -j`, so two cases that share a
//! fixed file name under testing::TempDir() overwrite or delete each other's
//! file. temp_path() prefixes the name with the running test's suite and
//! case names plus the process id, so no two cases that may run at the same
//! time can collide. Every file or directory a test creates goes through it:
//! the tests.temp_paths ctest entry rejects any other use of TempDir().

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <string_view>

namespace relperf::test {

/// `<TempDir><Suite>.<Case>.<pid>.<name>`; '/' in parameterized test names
/// becomes '_' so the result stays a single path component.
[[nodiscard]] inline std::string temp_path(std::string_view name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info == nullptr ? std::string("no_test")
                                       : std::string(info->test_suite_name()) +
                                             "." + info->name();
    for (char& c : test) {
        if (c == '/') c = '_';
    }
    return ::testing::TempDir() + test + "." + std::to_string(::getpid()) +
           "." + std::string(name);
}

} // namespace relperf::test

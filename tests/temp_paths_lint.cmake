# Rejects direct uses of testing::TempDir() under tests/ outside
# temp_path.hpp: a fixed name under the shared temp directory races with
# every other case that picks the same name when ctest runs cases in
# parallel. Use relperf::test::temp_path() instead.
#
#   cmake -DTESTS_DIR=<repo>/tests -P temp_paths_lint.cmake
cmake_minimum_required(VERSION 3.25)
if(NOT TESTS_DIR)
    message(FATAL_ERROR "temp_paths_lint: pass -DTESTS_DIR=<dir>")
endif()
file(GLOB_RECURSE sources "${TESTS_DIR}/*.cpp" "${TESTS_DIR}/*.hpp")
list(SORT sources)
set(violations "")
foreach(source IN LISTS sources)
    get_filename_component(name "${source}" NAME)
    if(name STREQUAL "temp_path.hpp")
        continue()
    endif()
    file(STRINGS "${source}" hits REGEX "TempDir[ \t]*\\(")
    foreach(hit IN LISTS hits)
        string(STRIP "${hit}" hit)
        list(APPEND violations "${source}: ${hit}")
    endforeach()
endforeach()
if(violations)
    list(JOIN violations "\n  " report)
    message(FATAL_ERROR "TempDir() outside temp_path.hpp (use "
                        "relperf::test::temp_path):\n  ${report}")
endif()

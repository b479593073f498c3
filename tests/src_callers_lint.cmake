# Rejects headers under src/ that no production code includes: a src/**/*.hpp
# whose only includers are tests (or its own .cpp) is library code without a
# caller. Delete it, or move it to tests/testlib/ when tests still need it.
# Includers are searched in src/, tools/, bench/, examples/ and perfbench/.
#
#   cmake -DREPO_DIR=<repo> -P src_callers_lint.cmake
cmake_minimum_required(VERSION 3.25)
if(NOT REPO_DIR)
    message(FATAL_ERROR "src_callers_lint: pass -DREPO_DIR=<repo root>")
endif()

# Headers without a caller yet, each waiting for its own change:
#  - stats/ecdf.hpp: ROADMAP "Delete what does not pay for itself, part 2",
#    candidate 1 (deleting it retires its tests).
set(allowed "stats/ecdf.hpp")

set(includers "")
foreach(dir IN ITEMS src tools bench examples perfbench)
    file(GLOB_RECURSE found "${REPO_DIR}/${dir}/*.cpp" "${REPO_DIR}/${dir}/*.hpp")
    list(APPEND includers ${found})
endforeach()

# callers_<header> = files that include "<header>", for every quoted include.
foreach(file IN LISTS includers)
    file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS lines)
        string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*$" "\\1"
               header "${line}")
        list(APPEND "callers_${header}" "${file}")
    endforeach()
endforeach()

file(GLOB_RECURSE headers RELATIVE "${REPO_DIR}/src" "${REPO_DIR}/src/*.hpp")
list(SORT headers)
set(violations "")
foreach(header IN LISTS headers)
    if(header IN_LIST allowed)
        continue()
    endif()
    string(REGEX REPLACE "\\.hpp$" ".cpp" own_source "${REPO_DIR}/src/${header}")
    set(callers ${callers_${header}})
    list(REMOVE_ITEM callers "${own_source}")
    if(NOT callers)
        list(APPEND violations "src/${header}")
    endif()
endforeach()
if(violations)
    list(JOIN violations "\n  " report)
    message(FATAL_ERROR "headers under src/ with no includer outside tests/ "
                        "and their own .cpp (delete them, or move them to "
                        "tests/testlib/):\n  ${report}")
endif()

# Targets of the repository benchmark (see README.md), included at the end of
# the repository's top-level CMakeLists.txt by hook.cmake; run.py drives the
# build. Paths are relative to this file because the including scope is the
# repository root.

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

string(TOUPPER "${CMAKE_BUILD_TYPE}" _perfbench_build_type)
set(_perfbench_flags "${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${_perfbench_build_type}}")
string(STRIP "${_perfbench_flags}" _perfbench_flags)

add_library(perfbench_lib STATIC
  ${PERFBENCH_DIR}/src/stats.cpp
  ${PERFBENCH_DIR}/src/metrics.cpp
  ${PERFBENCH_DIR}/src/environment.cpp
  ${PERFBENCH_DIR}/src/workloads.cpp
  ${PERFBENCH_DIR}/src/layers.cpp
)
target_include_directories(perfbench_lib PUBLIC ${PERFBENCH_DIR}/src)
target_link_libraries(perfbench_lib PUBLIC afl_core afl_compress afl_net afl_fl
                                           afl_prune afl_rl afl_data afl_nn afl_tensor)
target_compile_definitions(perfbench_lib PRIVATE
  PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  PERFBENCH_CXX_FLAGS="${_perfbench_flags}")

add_executable(perfbench ${PERFBENCH_DIR}/src/main.cpp)
target_link_libraries(perfbench PRIVATE perfbench_lib)

add_executable(perfbench_test ${PERFBENCH_DIR}/tests/perfbench_test.cpp)
target_link_libraries(perfbench_test PRIVATE perfbench_lib GTest::gtest_main)
target_compile_definitions(perfbench_test PRIVATE
  PERFBENCH_BENCHMARK_JSON="${PERFBENCH_DIR}/../BENCHMARK.json")

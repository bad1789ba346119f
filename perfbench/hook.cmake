# Loaded as CMAKE_PROJECT_adaptivefl_INCLUDE by run.py. Once the repository's
# top-level CMakeLists.txt has declared every target, perfbench.cmake adds
# the benchmark's own targets in the same directory scope, so they link the
# repository's libraries and compile with exactly its flags. (Deferred
# arguments are expanded when the call runs, hence the variable.)
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${PERFBENCH_DIR}/perfbench.cmake")

# Runs one example program and fails unless its stdout equals a recorded
# golden byte for byte. Invoked by ctest (see CMakeLists.txt here):
#   cmake -DEXE=<program> -DGOLDEN=<file> -P check_golden.cmake
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN}:\n${actual}")
endif()

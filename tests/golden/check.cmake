# Golden-output check, run as `cmake -DCOMMAND=EXE "-DARGS=A;B" -DACTUAL=OUT
# -DGOLDEN=FILE -P check.cmake`: runs EXE with ARGS, writes its stdout to
# OUT, and fails unless it exits 0 and OUT equals FILE byte for byte.
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${COMMAND}" ${ARGS}
  OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE exit_code)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${ACTUAL}" "${GOLDEN}" RESULT_VARIABLE differs)
if(NOT exit_code STREQUAL "0")
  message(FATAL_ERROR "exit code ${exit_code}, want 0")
endif()
if(NOT differs STREQUAL "0")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}: diff it against ${ACTUAL}")
endif()

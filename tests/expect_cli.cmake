# Runs one command-line case and checks both its exit status and its
# output: cmake -DCMD=<exe> -DARGS="<args>" -DEXIT=<code> -DREGEX=<re>
# -P expect_cli.cmake. ARGS is split like a shell command line; REGEX is
# matched against stdout followed by stderr.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "exit ${rc}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}${err}")
endif()

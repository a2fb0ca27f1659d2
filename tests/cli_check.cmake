# Runs one pcsim command line (the arguments after "--") and checks
# its outcome; tests/CMakeLists.txt registers every use.
#
#   cmake -DOUTPUT=F -DREFERENCE=R -P cli_check.cmake -- pcsim ...
#       exit 0, and the file F the command wrote is byte-identical to R
#   cmake -DOUTPUT=F -DCONTAINS=S [-DLACKS=T] -P cli_check.cmake -- ...
#       exit 0, and F contains the text S (and not T); S may be a
#       list, each element of which F must contain
#   cmake -DOUTPUT=F -DJSON_OBJECT=1 -P cli_check.cmake -- pcsim ...
#       exit 0, and F starts with a JSON object
#   -DSTDOUT=1 added to any of the three: F is the command's stdout
#   cmake -DEXPECT_ERROR=MSG -P cli_check.cmake -- pcsim ...
#       exit 1, with MSG on stderr

set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_cmd)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(in_cmd TRUE)
    endif()
endforeach()

if(DEFINED OUTPUT)
    file(REMOVE "${OUTPUT}")
endif()
if(STDOUT)
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                    OUTPUT_FILE "${OUTPUT}" ERROR_VARIABLE err)
else()
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err)
endif()

if(DEFINED EXPECT_ERROR)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "expected exit 1, got '${rc}'; stderr:\n${err}")
    endif()
    string(FIND "${err}" "${EXPECT_ERROR}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "stderr lacks '${EXPECT_ERROR}':\n${err}")
    endif()
    return()
endif()

if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit '${rc}'; stderr:\n${err}")
endif()
if(DEFINED REFERENCE)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${OUTPUT}" "${REFERENCE}"
                    RESULT_VARIABLE differ)
    if(differ)
        message(FATAL_ERROR "${OUTPUT} differs from ${REFERENCE}")
    endif()
    return()
endif()

file(READ "${OUTPUT}" text)
foreach(want IN LISTS CONTAINS)
    string(FIND "${text}" "${want}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${OUTPUT} lacks '${want}'")
    endif()
endforeach()
if(DEFINED LACKS)
    string(FIND "${text}" "${LACKS}" at)
    if(NOT at EQUAL -1)
        message(FATAL_ERROR "${OUTPUT} contains '${LACKS}'")
    endif()
endif()
if(JSON_OBJECT)
    string(JSON type ERROR_VARIABLE json_err TYPE "${text}")
    if(NOT type STREQUAL "OBJECT")
        message(FATAL_ERROR "${OUTPUT} does not start with a JSON object: ${json_err}")
    endif()
endif()

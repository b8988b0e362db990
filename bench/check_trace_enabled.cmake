# Test driver for the bench_trace_enabled ctest entry: tracing is
# pay-for-use, so every other test runs the disabled path only.  Run
# one bench under CSBSIM_TRACE=bus and require that
#   - it exits 0 with the same stdout as an untraced run,
#   - stderr carries the bus channel's transaction lines,
#   - and no line from any other channel.
# Invoked as
#   cmake -DBENCH=... -P this
execute_process(
    COMMAND ${BENCH} --jobs 1
    RESULT_VARIABLE plain_rc
    OUTPUT_VARIABLE plain_out)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CSBSIM_TRACE=bus ${BENCH} --jobs 1
    RESULT_VARIABLE traced_rc
    OUTPUT_VARIABLE traced_out
    ERROR_VARIABLE traced_err)
if(NOT plain_rc EQUAL 0 OR NOT traced_rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} failed (rc=${plain_rc} untraced, "
            "${traced_rc} traced)")
endif()
if(NOT plain_out STREQUAL traced_out)
    message(FATAL_ERROR "CSBSIM_TRACE=bus changed ${BENCH}'s stdout")
endif()
if(NOT traced_err MATCHES "\\] bus: write start cycle=[0-9]+ write ")
    message(FATAL_ERROR "no 'bus: write start' line under CSBSIM_TRACE=bus")
endif()
if(traced_err MATCHES "\\] (csb|ubuf|cpu|ni): ")
    message(FATAL_ERROR "a channel other than bus traced under "
                        "CSBSIM_TRACE=bus")
endif()

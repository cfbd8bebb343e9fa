# Tracing smoke test (driven by ctest, see CMakeLists.txt).
#
# Runs one small campaign as two dmdc_sim --shard=i/2 processes with
# --trace=all over a shared run cache. Each process writes its own
# shard-tagged Chrome trace file; trace_merge must combine them into a
# document that re-validates and carries events from both
# instrumented layers (kernel, runner), and journal_merge of the
# traced shard journals must stay byte-identical to an untraced
# serial run.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(campaign
    --bench=gzip,swim --scheme=baseline,yla --insts=20000 --warmup=2000
    --json-deterministic)

execute_process(
    COMMAND ${DMDC_SIM} ${campaign} --cache-dir=${WORK_DIR}/serial_cache
            --json=${WORK_DIR}/serial.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serial campaign failed (exit ${rc})")
endif()

foreach(shard 0 1)
    execute_process(
        COMMAND ${DMDC_SIM} ${campaign} --shard=${shard}/2 --jobs=2
                --cache-dir=${WORK_DIR}/traced_cache
                --trace=all --trace-out=${WORK_DIR}/trace.json
                --json=${WORK_DIR}/shard${shard}.json
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "traced shard ${shard}/2 failed (exit ${rc})")
    endif()
endforeach()

execute_process(
    COMMAND ${JOURNAL_MERGE} ${WORK_DIR}/shard0.json
            ${WORK_DIR}/shard1.json --out=${WORK_DIR}/merged.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "journal_merge failed (exit ${rc})")
endif()

# Tracing must not perturb results: the traced campaign's merged
# journal must equal the untraced serial journal byte-for-byte.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/serial.json ${WORK_DIR}/merged.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "traced merged journal differs from the serial journal")
endif()

foreach(part trace.shard0of2.json trace.shard1of2.json)
    if(NOT EXISTS "${WORK_DIR}/${part}")
        message(FATAL_ERROR "expected trace file ${part} was not "
                            "written")
    endif()
endforeach()

execute_process(
    COMMAND ${TRACE_MERGE}
            ${WORK_DIR}/trace.shard0of2.json
            ${WORK_DIR}/trace.shard1of2.json
            --out=${WORK_DIR}/trace.merged.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_merge failed (exit ${rc})")
endif()

# The merged document must itself pass trace_merge's strict
# validation (i.e. parse as one well-formed trace).
execute_process(
    COMMAND ${TRACE_MERGE} ${WORK_DIR}/trace.merged.json
            --out=${WORK_DIR}/trace.revalidated.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "merged trace failed re-validation (exit ${rc})")
endif()

file(READ "${WORK_DIR}/trace.merged.json" merged_trace)
foreach(cat kernel runner)
    string(FIND "${merged_trace}" "\"cat\":\"${cat}\"" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
            "merged trace has no \"${cat}\" events")
    endif()
endforeach()

message(STATUS "trace smoke: merged trace has kernel and runner "
               "events and the traced journal is byte-identical")

# Campaign-service chaos test (driven by ctest, see CMakeLists.txt).
#
# Runs dmdc_serve inside a respawn loop with the serve-crash fault
# site armed at p=1: the daemon SIGKILLs itself after *every* freshly
# simulated run (always after the run was cached, so each death
# strictly follows progress). The run cache is the only durable
# state: a restarted daemon knows nothing of the work its predecessor
# accepted. One dmdc_client submits a 4-run campaign with --wait and
# must ride out every crash — reconnecting with backoff, resubmitting
# when the restarted daemon has forgotten its campaign id — and
# finally write a journal byte-identical to a serial
# `dmdc_sim --json-deterministic` run. Asserts along the way that
#  - the daemon was killed at least once and the whole loop converged
#    in at most runs+2 generations (the progress rule);
#  - restarted daemons reclaimed the stale socket;
#  - across all generations every run identity was freshly simulated
#    (a `serve: <identity> -> ok` line without ` (cached)`) at most
#    once: resubmitted runs that finished before a kill come back
#    from the cache.
#
# Requires DMDC_SIM, DMDC_SERVE, DMDC_CLIENT, WORK_DIR. Uses bash to
# background the respawn loop (Unix-only, like the daemon itself).

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(socket "${WORK_DIR}/chaos.sock")
set(stopfile "${WORK_DIR}/stop")
set(loop_pid "${WORK_DIR}/loop.pid")
set(serve_pid "${WORK_DIR}/serve.pid")
set(gens "${WORK_DIR}/gens.txt")
set(serve_log "${WORK_DIR}/serve.log")

# Fail, but tear the respawn loop down first so ctest never leaks it.
macro(chaos_fail msg)
    file(TOUCH "${stopfile}")
    execute_process(COMMAND bash -c
        "test -f '${serve_pid}' && kill -9 $(cat '${serve_pid}'); \
         test -f '${loop_pid}' && kill $(cat '${loop_pid}')"
        ERROR_QUIET OUTPUT_QUIET)
    message(FATAL_ERROR "${msg}")
endmacro()

set(knobs --insts=20000 --warmup=2000)
set(campaign --bench=gzip,swim --scheme=baseline,yla ${knobs})

# Reference journal from an uninterrupted serial run (its own cache
# dir, so the daemon side cannot inherit warm entries).
execute_process(
    COMMAND ${DMDC_SIM} ${campaign} --json-deterministic
            --cache-dir=${WORK_DIR}/serial_cache
            --json=${WORK_DIR}/serial.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    chaos_fail("serial reference campaign failed (exit ${rc})")
endif()

# The respawn loop: every daemon generation shares the socket and the
# run cache. p=1 guarantees the first generation dies, so recovery by
# resubmission is always exercised.
execute_process(
    COMMAND bash -c
        "(while [ ! -f '${stopfile}' ]; do \
            DMDC_FAULT='serve-crash:p=1.0,seed=3' \
                '${DMDC_SERVE}' --socket='${socket}' --workers=2 \
                --cache-dir='${WORK_DIR}/serve_cache' --verbose \
                >> '${serve_log}' 2>&1 & \
            echo $! > '${serve_pid}'; \
            wait $! > /dev/null 2>&1; \
            echo gen >> '${gens}'; \
          done) > /dev/null 2>&1 & echo $! > '${loop_pid}'"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    chaos_fail("cannot start the dmdc_serve respawn loop (exit ${rc})")
endif()

# The client must survive every daemon death on its own: submit,
# wait, reconnect, resubmit, and come home with the journal.
execute_process(
    COMMAND ${DMDC_CLIENT} submit --socket=${socket} ${campaign}
            --wait --json=${WORK_DIR}/client.json
            --retries=60 --retry-delay-ms=100
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE client_out ERROR_VARIABLE client_err)
if(NOT rc EQUAL 0)
    chaos_fail("client did not survive the crash loop (exit ${rc}):\n"
               "${client_out}\n${client_err}")
endif()

# Converged: stop respawning and drain the surviving daemon.
file(TOUCH "${stopfile}")
execute_process(
    COMMAND ${DMDC_CLIENT} shutdown --socket=${socket}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
set(stopped FALSE)
foreach(attempt RANGE 50)
    execute_process(
        COMMAND bash -c "kill -0 $(cat '${loop_pid}') 2>/dev/null"
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        set(stopped TRUE)
        break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
if(NOT stopped)
    chaos_fail("respawn loop still running after shutdown")
endif()

# The recovered journal must be byte-identical to the serial one.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/serial.json ${WORK_DIR}/client.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "chaos journal differs from the serial --json-deterministic "
        "journal (see ${WORK_DIR})")
endif()

# Count daemon generations: at least one SIGKILL must have happened
# (p=1 guarantees it), and the progress rule bounds the total — each
# crash strictly follows a newly cached run, so 4 runs converge in at
# most 4 crashing generations plus the final clean one.
file(STRINGS "${gens}" gen_lines)
list(LENGTH gen_lines generations)
if(generations LESS 2)
    message(FATAL_ERROR
        "expected at least 2 daemon generations (one SIGKILL), got "
        "${generations} — the chaos site never fired")
endif()
if(generations GREATER 6)
    message(FATAL_ERROR
        "restart loop did not converge: ${generations} generations "
        "for a 4-run campaign (progress rule allows at most 5)")
endif()

# The restarted daemons must have reclaimed the dead generation's
# socket (the documented probe-and-reclaim path).
file(READ "${serve_log}" log_text)
if(NOT log_text MATCHES "reclaiming stale socket")
    message(FATAL_ERROR
        "no 'reclaiming stale socket' in the daemon log — restart "
        "never exercised the stale-socket probe:\n${log_text}")
endif()

# At most once: across every generation, each run identity has at
# most one freshly simulated completion line. A resubmitted run that
# finished before a kill must come back as ` (cached)`.
file(STRINGS "${serve_log}" done_lines REGEX "serve: [^ ]+ -> ok$")
set(fresh_ids "")
foreach(line IN LISTS done_lines)
    string(REGEX REPLACE ".*serve: ([^ ]+) -> ok$" "\\1" id "${line}")
    list(FIND fresh_ids "${id}" seen)
    if(NOT seen EQUAL -1)
        message(FATAL_ERROR
            "run ${id} was freshly simulated more than once across "
            "daemon generations:\n${log_text}")
    endif()
    list(APPEND fresh_ids "${id}")
endforeach()
list(LENGTH fresh_ids fresh_count)
if(fresh_count EQUAL 0)
    message(FATAL_ERROR
        "no freshly simulated run in the daemon log:\n${log_text}")
endif()

message(STATUS
    "serve chaos: ${generations} daemon generations, ${fresh_count} "
    "fresh simulations, journal byte-identical to the serial run")

# Runs rrsim over the example programs (examples/asm and examples/os)
# on both interpreter engines — the uncached reference
# (RR_CPU_PREDECODE=0) and threaded superblock dispatch
# (RR_CPU_PREDECODE=1) — and fails unless the structured traces and
# final-state JSON dumps are byte-identical: the engine must be
# architecturally invisible (docs/PERF.md). Invoked by ctest; see
# tests/CMakeLists.txt.

foreach(var RRSIM EXAMPLES_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

file(GLOB programs ${EXAMPLES_DIR}/asm/*.s ${EXAMPLES_DIR}/os/*.s)
list(SORT programs)
if(programs STREQUAL "")
    message(FATAL_ERROR "no example programs under ${EXAMPLES_DIR}")
endif()

foreach(program ${programs})
    get_filename_component(name ${program} NAME_WE)
    foreach(predecode 0 1)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env
                RR_CPU_PREDECODE=${predecode}
                ${RRSIM} --trace=${WORK_DIR}/${name}.${predecode}.jsonl
                --json ${program}
            OUTPUT_FILE ${WORK_DIR}/${name}.${predecode}.json
            RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            message(FATAL_ERROR
                "rrsim failed on ${name} (RR_CPU_PREDECODE=${predecode})")
        endif()
    endforeach()
    foreach(ext jsonl json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/${name}.0.${ext} ${WORK_DIR}/${name}.1.${ext}
            RESULT_VARIABLE diff)
        if(NOT diff EQUAL 0)
            message(FATAL_ERROR
                "${name}: ${ext} output differs between the reference "
                "engine and threaded dispatch")
        endif()
    endforeach()
endforeach()

# Runs one figure binary and compares its stdout, then its stderr,
# with the committed golden file, after dropping the `[sweep]` footer
# lines (wall times and point counts). Figure tables are identical
# for any --jobs value, so one golden serves every job count.
#
#   cmake -DBIN=<binary> [-DARGS="--jobs 2"] -DGOLDEN=<golden.txt>
#         [-DACTUAL=<file>] [-DUPDATE=ON] -P figure_golden.cmake
#
# A non-zero exit of the binary (a point that missed its host
# reference) fails the check. On a mismatch the output is written to
# ACTUAL and diffed against the golden. UPDATE=ON rewrites the golden
# instead; `cmake --build build --target figure-goldens` does that
# for all five binaries.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}\n${out}${err}")
endif()

# Drop whole `[sweep]` lines; the leading newline anchors the match
# at a line start.
set(text "\n${out}${err}")
string(REGEX REPLACE "\n\\[sweep\\][^\n]*" "" text "${text}")
string(SUBSTRING "${text}" 1 -1 text)

if(UPDATE)
    file(WRITE "${GOLDEN}" "${text}")
    message(STATUS "wrote ${GOLDEN}")
    return()
endif()

file(READ "${GOLDEN}" want)
if(NOT text STREQUAL want)
    if(NOT ACTUAL)
        set(ACTUAL "${GOLDEN}.actual")
    endif()
    file(WRITE "${ACTUAL}" "${text}")
    find_program(DIFF_TOOL diff)
    if(DIFF_TOOL)
        execute_process(COMMAND ${DIFF_TOOL} -u "${GOLDEN}" "${ACTUAL}")
    endif()
    message(FATAL_ERROR
            "${BIN} output differs from ${GOLDEN} (output in ${ACTUAL}). "
            "If the change is intended, regenerate the goldens with "
            "`cmake --build <build-dir> --target figure-goldens` and "
            "put the diff in CHANGES.md.")
endif()

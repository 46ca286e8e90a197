# Wrapper for the `lint` build target: runs h2r-lint --strict against
# the committed baseline and translates the exit-code contract into an
# unambiguous build-log verdict. Satellite fix for the bug where exit 2
# (usage/internal error — the gate itself broke) was indistinguishable
# from exit 1 (real findings) in the target output.
execute_process(
  COMMAND ${LINT_BIN} --repo ${REPO} --baseline ${BASELINE} --strict
  RESULT_VARIABLE code)
if(code EQUAL 0)
  # clean — h2r-lint already printed its summary line
elseif(code EQUAL 1)
  message(FATAL_ERROR
    "h2r-lint: findings at error severity (exit 1) — fix the code or "
    "annotate with an audited allow")
else()
  message(FATAL_ERROR
    "h2r-lint: INTERNAL ERROR (exit ${code}), not a lint verdict — the "
    "gate itself failed to run; see the h2r-lint stderr marker above")
endif()

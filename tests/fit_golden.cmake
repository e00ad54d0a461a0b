# Cross-version golden for fitted bytes: reruns the smoke fit and
# byte-compares the exported .edpm with the checked-in golden file, which was
# written by an earlier build of the fitter. Any numerics drift in the PMNF
# search or in common/linalg changes some hexfloat in it. A deliberate
# numerics change regenerates the golden with the command below and says so
# in its change description.
#
#   cmake -DEXTRADEEP=<extradeep> -DGOLDEN=<golden.edpm> -DOUT=<out.edpm>
#         -P fit_golden.cmake
execute_process(
  COMMAND ${EXTRADEEP} fit --out ${OUT} --name smoke --reps 2 --seed 3
  RESULT_VARIABLE fit_rc)
if(NOT fit_rc EQUAL 0)
  message(FATAL_ERROR "extradeep fit failed (${fit_rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()

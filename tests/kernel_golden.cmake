# Cross-version golden for the kernel path: reruns kernel_golden_dump
# (model_kernels at max_terms = 2 for time, bytes and visits) and
# byte-compares its hexfloat dump with the checked-in golden, which was
# written by an earlier build of the fitter. Any numerics drift in the PMNF
# search, its batching over kernel series, or common/linalg changes some
# hexfloat in it. A deliberate numerics change regenerates the golden with
#
#   <build>/tests/kernel_golden_dump tests/data/golden/kernel_models.txt
#
# and says so in its change description. The test itself runs
#
#   cmake -DDUMP=<kernel_golden_dump> -DGOLDEN=<golden.txt> -DOUT=<out.txt>
#         -P kernel_golden.cmake
execute_process(
  COMMAND ${DUMP} ${OUT}
  RESULT_VARIABLE dump_rc)
if(NOT dump_rc EQUAL 0)
  message(FATAL_ERROR "kernel_golden_dump failed (${dump_rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()

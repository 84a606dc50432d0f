# Kill-and-resume check: train 2 of 4 epochs and checkpoint, restart the
# process from the checkpoint, and require the resumed run's per-epoch CSV
# to be byte-identical to an uninterrupted 4-epoch run. The checkpoint
# inspector must accept the checkpoint and refuse a bit-flipped and a
# truncated copy of it.
#   cmake -DEXPERIMENT=<remapd_experiment> -DINSPECT=<remapd_ckpt>
#         -DWORK=<scratch dir> -P kill_and_resume.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run what)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: exit ${rc}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

set(run_args --model vgg11 --policy remap-d --epochs 4 --train 48 --test 32)
run("first leg" ${EXPERIMENT} ${run_args} --checkpoint resume.ckpt
    --stop-after 2 --csv leg1.csv)
run("resumed leg" ${EXPERIMENT} ${run_args} --resume resume.ckpt
    --csv resumed.csv)
run("uninterrupted run" ${EXPERIMENT} ${run_args} --csv full.csv)
run("compare" ${CMAKE_COMMAND} -E compare_files resumed.csv full.csv)

run("inspect" ${INSPECT} resume.ckpt)
string(JSON kind ERROR_VARIABLE json_err TYPE "${out}")
if(json_err)
  message(FATAL_ERROR "inspector output is not JSON: ${json_err}\n${out}")
endif()

# Four 0xff bytes written over offset 4096, and the first 4096 bytes alone.
file(COPY_FILE ${WORK}/resume.ckpt ${WORK}/corrupt.ckpt)
run("bit flip" printf "\\377\\377\\377\\377"
    COMMAND dd of=corrupt.ckpt bs=1 seek=4096 conv=notrunc)
run("truncate" dd if=resume.ckpt of=truncated.ckpt bs=4096 count=1)
foreach(bad corrupt.ckpt truncated.ckpt)
  execute_process(COMMAND ${INSPECT} ${bad} WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "inspector accepted ${bad}")
  endif()
endforeach()

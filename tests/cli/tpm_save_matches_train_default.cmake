# `srcctl tpm --save` exports the model a manifest's "train-default" source
# fits: a run with `--model <saved file>` reports the same headline numbers
# as the same run training its own model.
#
#   cmake -DSRCCTL=<srcctl> -DMANIFEST=<manifest.json> -P tpm_save_matches_train_default.cmake
function(srcctl)
  execute_process(COMMAND ${SRCCTL} ${ARGN} RESULT_VARIABLE code OUTPUT_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "srcctl ${ARGN}: exit ${code}")
  endif()
endfunction()

srcctl(tpm --save tpm_save.tpm)
srcctl(run ${MANIFEST} --model tpm_save.tpm --metrics-out tpm_save_loaded.json)
srcctl(run ${MANIFEST} --metrics-out tpm_save_trained.json)
file(READ tpm_save_loaded.json loaded)
file(READ tpm_save_trained.json trained)
foreach(key read_gbps write_gbps aggregate_gbps total_pauses final_weight_ratio)
  string(JSON with_model GET "${loaded}" ${key})
  string(JSON without_model GET "${trained}" ${key})
  if(NOT with_model STREQUAL without_model)
    message(FATAL_ERROR
      "${key}: ${with_model} with --model, ${without_model} with train-default")
  endif()
  message(STATUS "${key}: ${with_model}")
endforeach()

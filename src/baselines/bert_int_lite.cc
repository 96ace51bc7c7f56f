#include "baselines/bert_int_lite.h"

#include "baselines/union_graph.h"

namespace sdea::baselines {

Status BertIntLite::Fit(const AlignInput& input) {
  SDEA_RETURN_IF_ERROR(encoder_.Init(EntityNames(input.kg1),
                                     EntityNames(input.kg2), config_.text));
  SDEA_ASSIGN_OR_RETURN(auto report, encoder_.Pretrain(input.seeds));
  (void)report;
  emb1_ = encoder_.ComputeAllEmbeddings(1);
  emb2_ = encoder_.ComputeAllEmbeddings(2);
  return Status::Ok();
}

}  // namespace sdea::baselines

#include "fed/coordinator.h"

#include <utility>

#include "obs/telemetry.h"
#include "util/check.h"

namespace td {

Coordinator::Coordinator(std::vector<std::unique_ptr<QueryOps>> queries)
    : queries_(std::move(queries)) {
  TD_CHECK_MSG(!queries_.empty(),
               "a coordinator needs at least one query to merge");
  for (const std::unique_ptr<QueryOps>& q : queries_) {
    TD_CHECK(q != nullptr);
  }
}

FedState Coordinator::MakeState() const {
  FedState st;
  st.partials.reserve(queries_.size());
  st.synopses.reserve(queries_.size());
  for (const std::unique_ptr<QueryOps>& q : queries_) {
    st.partials.emplace_back(q.get());
    st.synopses.emplace_back(q.get());
  }
  return st;
}

void Coordinator::Merge(FedState* state, const FedRootState& root) {
  TD_PROFILE_SCOPE(obs::Phase::kFedMerge);
  TD_CHECK(state != nullptr);
  TD_CHECK_EQ(state->partials.size(), queries_.size());
  TD_CHECK_MSG(root.partial != nullptr || root.synopsis != nullptr,
               "gateway root state has no sides: was the gateway engine "
               "built with EngineOptions::capture_root_state set?");
  if (root.partial != nullptr) {
    TD_CHECK_EQ(root.partial->q.size(), queries_.size());
    state->has_tree = true;
    for (size_t i = 0; i < queries_.size(); ++i) {
      const void* from = root.partial->q[i].get();
      queries_[i]->MergeTree(state->partials[i].get(), from);
      ++merges_;
      merged_bytes_ += queries_[i]->TreeBytes(from);
    }
  }
  if (root.synopsis != nullptr) {
    TD_CHECK_EQ(root.synopsis->q.size(), queries_.size());
    state->has_synopsis = true;
    for (size_t i = 0; i < queries_.size(); ++i) {
      const void* from = root.synopsis->q[i].get();
      queries_[i]->Fuse(state->synopses[i].get(), from);
      ++merges_;
      merged_bytes_ += queries_[i]->SynopsisBytes(from);
    }
  }
}

double Coordinator::Evaluate(const FedState& state, size_t query) const {
  TD_CHECK_LT(query, queries_.size());
  const QueryOps& ops = *queries_[query];
  if (state.has_tree && state.has_synopsis) {
    return ops.EvaluateCombined(state.partials[query].get(),
                                state.synopses[query].get());
  }
  if (state.has_synopsis) {
    return ops.EvaluateSynopsis(state.synopses[query].get());
  }
  return ops.EvaluateTree(state.partials[query].get());
}

}  // namespace td

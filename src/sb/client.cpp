#include "sb/client.hpp"

namespace sbp::sb {

void V3Sync::fill(Request::ListState& out, const SyncedList<State>& list) {
  out.add_chunks.clear();
  out.sub_chunks.clear();
  if (!list.synced) return;
  for (const Chunk& c : list.synced->chunks.adds()) {
    out.add_chunks.push_back(c.number);
  }
  for (const Chunk& c : list.synced->chunks.subs()) {
    out.sub_chunks.push_back(c.number);
  }
}

bool V3Sync::apply(SyncedList<State>& list, const SharedUpdate& response,
                   const Response::ListUpdate& update,
                   const ClientConfig& config) {
  // Moved in: with no shared cache the old state is freed once applied.
  list.synced = config.sync_states
                    ? config.sync_states->next_v3(std::move(list.synced),
                                                  response, update,
                                                  config.store_kind,
                                                  config.bloom_bits)
                    : apply_v3(std::move(list.synced), update,
                               config.store_kind, config.bloom_bits);
  return true;
}

}  // namespace sbp::sb

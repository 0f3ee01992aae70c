#include "sb/protocol_v4.hpp"

namespace sbp::sb {

bool V4Sync::apply(SyncedList<State>& list, const SharedV4Update& response,
                   const V4SliceUpdate& slice, const ClientConfig& config) {
  // Moved in: with no shared cache the old state is freed once applied.
  list.synced = config.sync_states
                    ? config.sync_states->next_v4(std::move(list.synced),
                                                  response, slice)
                    : apply_v4(std::move(list.synced), slice);
  if (!list.synced || list.synced->checksum() != slice.checksum) {
    list.synced.reset();
    list.token = 0;
    return false;
  }
  list.token = slice.new_state;
  return true;
}

std::uint64_t V4SlicedProtocol::list_state(std::string_view list_name) const {
  const auto* list = find_list(list_name);
  return list ? list->token : 0;
}

std::uint32_t V4SlicedProtocol::list_checksum(
    std::string_view list_name) const {
  const auto* list = find_list(list_name);
  if (list == nullptr) return 0;
  return list->synced ? list->synced->checksum()
                      : storage::RawHashStore::checksum_of({});
}

}  // namespace sbp::sb

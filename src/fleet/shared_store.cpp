#include "fleet/shared_store.hpp"

namespace parcel::fleet {

SharedObjectStore::Key SharedObjectStore::key_for(
    const web::WebObject& object) {
  Key key;
  key.size = object.size;
  if (object.content) {
    key.data = object.content->data();
    key.aux = object.content->size();
    key.opaque = false;
  } else {
    key.data = nullptr;
    key.aux = object.url.id().v;
    key.opaque = true;
  }
  return key;
}

bool SharedObjectStore::contains(const web::WebObject& object) const {
  return entries_.find(key_for(object)) != entries_.end();
}

SharedObjectStore::Outcome SharedObjectStore::request(
    const web::WebObject& object) {
  Key key = key_for(object);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    stats_.bytes_saved += it->second.size;
    return Outcome{true, it->second.size};
  }
  ++stats_.misses;
  Entry entry;
  entry.size = object.size;
  entry.pin = object.content;
  stats_.bytes_stored += entry.size;
  entries_.emplace(key, std::move(entry));
  return Outcome{false, 0};
}

SharedObjectStore SharedObjectStore::fork_contents() const {
  SharedObjectStore fork;
  fork.entries_ = entries_;
  // bytes_stored is resident state, not a counter; everything else
  // restarts at zero for the new epoch.
  fork.stats_.bytes_stored = stats_.bytes_stored;
  return fork;
}

bool SharedObjectStore::contents_equal(const SharedObjectStore& other) const {
  if (entries_.size() != other.entries_.size() ||
      stats_.bytes_stored != other.stats_.bytes_stored) {
    return false;
  }
  // parcel-lint: allow(unordered-iter) order-independent conjunction: every entry is looked up in the other map, so iteration order cannot reach the result
  for (const auto& [key, entry] : entries_) {
    auto it = other.entries_.find(key);
    if (it == other.entries_.end() || it->second.size != entry.size) {
      return false;
    }
  }
  return true;
}

void SharedObjectStore::clear() {
  entries_.clear();
  stats_.bytes_stored = 0;
}

}  // namespace parcel::fleet

#pragma once
/// \file update.hpp
/// \brief The unit of replicated state change.
///
/// An Update is one write issued by one node against one shared file (a
/// white-board stroke, a ticket booking, ...).  Identity is (writer, seq);
/// a writer's own updates are totally ordered, updates of different writers
/// may conflict.  `meta_delta` is the update's contribution to the file's
/// critical meta-data value (§4.4.1: sum of ASCII codes, sale price, ...).

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::replica {

/// Globally unique identity of an update.
struct UpdateKey {
  NodeId writer = kNoNode;
  std::uint64_t seq = 0;  ///< 1-based within the writer's history.

  friend bool operator==(const UpdateKey&, const UpdateKey&) = default;
  friend auto operator<=>(const UpdateKey&, const UpdateKey&) = default;
};

struct UpdateKeyHash {
  std::size_t operator()(const UpdateKey& k) const {
    return static_cast<std::size_t>(
        mix64((static_cast<std::uint64_t>(k.writer) << 32) ^ k.seq));
  }
};

struct Update {
  UpdateKey key;
  FileId file = 0;
  SimTime stamp = 0;        ///< Writer-local timestamp of the write.
  std::string content;      ///< Opaque application payload.
  double meta_delta = 0.0;  ///< Contribution to the critical meta value.
  bool invalidated = false; ///< Set by the invalidate-both policy.

  /// Estimated serialized size for message accounting.
  [[nodiscard]] std::uint32_t wire_bytes() const {
    return static_cast<std::uint32_t>(40 + content.size());
  }
};

/// Canonical display order: by stamp, ties by writer then seq.  All replicas
/// holding the same update set render the same sequence, which is what the
/// white board's "order preservation" means.
struct CanonicalOrder {
  bool operator()(const Update& a, const Update& b) const {
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    return a.key < b.key;
  }
};

/// An immutable canonical-order read view: the first `size()` updates of
/// a shared buffer.  A replica appends to its canonical buffer in place
/// (a view never reads past its own length) and copies the buffer only
/// when a live view would otherwise see a change, so pinning a view costs
/// O(1) however long the log is.  A view stays valid, and renders the
/// same updates, for as long as it is held.
class ContentsView {
 public:
  using value_type = Update;
  using const_iterator = const Update*;
  using iterator = const_iterator;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;
  using reverse_iterator = const_reverse_iterator;

  ContentsView() = default;
  /// The first `size` updates of `buffer` (size <= buffer->size()).
  ContentsView(std::shared_ptr<const std::vector<Update>> buffer,
               std::size_t size)
      : buffer_(std::move(buffer)),
        data_(buffer_ == nullptr ? nullptr : buffer_->data()),
        size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const Update& operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] const Update& front() const { return data_[0]; }
  [[nodiscard]] const Update& back() const { return data_[size_ - 1]; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  [[nodiscard]] const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

 private:
  std::shared_ptr<const std::vector<Update>> buffer_;
  const Update* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace idea::replica

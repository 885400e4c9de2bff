#pragma once
/// \file service.hpp
/// \brief Multi-file IDEA endpoint: several shared files on one node.
///
/// §4.1: "because consistency is associated with a single file, the concept
/// of top/bottom layer is also associated with a given shared file —
/// different files may have different top layers — and different top layers
/// do not interfere with one another.  For example, if a user joins
/// multiple virtual white boards, each white board is treated separately
/// and independently."
///
/// IdeaService realizes exactly that: it owns one IdeaNode per opened file,
/// claims the node's transport endpoint once, and routes incoming messages
/// to the right file's protocol stack by the message's file id.

#include <memory>
#include <unordered_map>

#include "core/idea_node.hpp"

namespace idea::core {

class IdeaService final : public net::MessageHandler {
 public:
  IdeaService(NodeId self, net::Transport& transport, std::uint64_t seed)
      : self_(self), transport_(transport), seed_(seed) {
    transport_.attach(self_, this);
  }

  ~IdeaService() override {
    // Drop the files before releasing the endpoint; their destructors must
    // not detach an endpoint they never owned.
    files_.clear();
    transport_.detach(self_);
  }

  IdeaService(const IdeaService&) = delete;
  IdeaService& operator=(const IdeaService&) = delete;

  /// Open (join) a shared file with its own configuration; returns the
  /// per-file IDEA stack — the paper stack, with its own overlay,
  /// detector, resolution manager and controller.
  ///
  /// Keep-first semantics: if the file is already open, the existing stack
  /// is returned unchanged and `config` is ignored — reconfiguring a live
  /// stack would silently discard its overlay/detector state, so callers
  /// that really want different settings must close() first and reopen.
  IdeaNode& open(FileId file, IdeaConfig config) {
    return emplace(file, /*inbound=*/nullptr, [&](std::uint64_t seed) {
      return std::make_unique<IdeaNode>(self_, file, transport_,
                                        std::move(config), seed,
                                        /*attach_transport=*/false);
    });
  }

  /// Open a file as rank `protocol_self` of a ring-managed replica group
  /// of `group_size` ranks: the group stack (see IdeaNode), running in
  /// the group's private rank-id space over a custom transport.  Sharded
  /// deployments use this: each file's replica group gets a
  /// rank-translating group transport, and `inbound` (when non-null)
  /// receives the file's raw transport messages so the caller can
  /// translate ids before demultiplexing into the node's dispatcher.
  /// Keep-first, exactly as open().
  IdeaNode& open_via(FileId file, IdeaConfig config, net::Transport& via,
                     NodeId protocol_self, std::uint32_t group_size,
                     net::MessageHandler* inbound = nullptr) {
    return emplace(file, inbound, [&](std::uint64_t seed) {
      return std::make_unique<IdeaNode>(protocol_self, file, via,
                                        std::move(config), seed,
                                        GroupStack{group_size});
    });
  }

  /// Leave a shared file, tearing down its protocol stack.  Closing a file
  /// that was never opened (or already closed) is a harmless no-op; the
  /// return value says whether a stack was actually torn down.
  bool close(FileId file) {
    // Clear in place only: growing the dense array to null out an id that
    // was never opened would let a stray close(huge_id) inflate memory.
    if (file < sinks_.size()) sinks_[file] = nullptr;
    return files_.erase(file) > 0;
  }

  [[nodiscard]] IdeaNode* find(FileId file) {
    auto it = files_.find(file);
    return it == files_.end() ? nullptr : it->second.node.get();
  }

  /// Zero-copy read hook: the file's canonical contents as a shared
  /// immutable view (IdeaNode::read_view), or nullptr when the file is
  /// not open here.  The client session read path funnels through this
  /// instead of copying the log per get.
  [[nodiscard]] std::shared_ptr<const replica::ContentsView> read_view(
      FileId file) {
    IdeaNode* node = find(file);
    return node == nullptr ? nullptr : node->read_view();
  }

  [[nodiscard]] std::size_t open_files() const { return files_.size(); }
  [[nodiscard]] NodeId id() const { return self_; }

  /// Route by the message's file id; messages for files this node has not
  /// joined are dropped (it is a bottom-layer bystander for them at most,
  /// and gossip dedup tolerates the loss).
  ///
  /// This runs once per delivered message on an endpoint hosting hundreds
  /// of files, so small file ids resolve through a dense sink array (one
  /// indexed load); only large/sparse ids fall back to the hash map.
  void on_message(const net::Message& msg) override {
    if (msg.file < sinks_.size()) {
      net::MessageHandler* sink = sinks_[msg.file];
      if (sink != nullptr) sink->on_message(msg);
      return;
    }
    auto it = files_.find(msg.file);
    if (it != files_.end()) it->second.sink->on_message(msg);
  }

 private:
  struct Entry {
    std::unique_ptr<IdeaNode> node;
    net::MessageHandler* sink = nullptr;  ///< Borrowed inbound handler.
  };

  /// Keep-first install: `make(seed)` builds the stack only when `file` is
  /// not open yet.
  template <typename Make>
  IdeaNode& emplace(FileId file, net::MessageHandler* inbound, Make make) {
    auto it = files_.find(file);
    if (it == files_.end()) {
      Entry entry;
      entry.node = make(mix64(seed_ ^ (0xF11EULL + file)));
      entry.sink = inbound != nullptr ? inbound : &entry.node->dispatcher();
      it = files_.emplace(file, std::move(entry)).first;
      index_sink(file, it->second.sink);
    }
    return *it->second.node;
  }

  /// Largest file id mirrored into the dense sink array (8 bytes/slot).
  static constexpr FileId kDenseFileLimit = 1u << 20;

  void index_sink(FileId file, net::MessageHandler* sink) {
    if (file >= kDenseFileLimit) return;
    if (file >= sinks_.size()) sinks_.resize(file + 1, nullptr);
    sinks_[file] = sink;
  }

  NodeId self_;
  net::Transport& transport_;
  std::uint64_t seed_;
  // Hash-indexed ownership: nothing iterates this map, so ordering is
  // irrelevant to determinism.
  std::unordered_map<FileId, Entry> files_;
  std::vector<net::MessageHandler*> sinks_;  ///< Dense file -> sink route.
};

}  // namespace idea::core

// Type-erased message payloads for the virtual message-passing runtime.
//
// Ranks live in one address space (they are threads of the simulator), so a
// "message" is a moved std::any plus the number of bytes the transfer would
// occupy on the wire.  The byte count is explicit rather than inferred:
// algorithms frequently send *views* into shared data (e.g. a partition of
// the image cube) whose in-memory footprint is a pointer but whose modeled
// transfer is megabytes -- exactly the situation MPI derived datatypes
// address on a real cluster (the paper uses them to scatter non-contiguous
// hyperspectral structures in one communication step).
//
// A packet carries its payload in one of two representations:
//
//  - exclusive: `value` owns the payload; the single consumer moves it out
//    (point-to-point, gather contributions, scatter parts);
//  - shared-immutable: `shared` refcounts one frozen payload that every
//    fan-out destination references.  An N-rank broadcast promotes the
//    root's value once (a move, not a copy) and hands each destination a
//    refcount bump, so the collective coordinator performs zero deep
//    copies under the engine lock.  Consumers either copy out of the
//    shared storage on their own thread (`take`) or alias it outright
//    (`Comm::bcast_shared`).
#pragma once

#include <any>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace hprs::vmpi {

struct Packet {
  std::any value;                          ///< exclusive (move-out) payload
  std::shared_ptr<const std::any> shared;  ///< shared-immutable payload
  std::size_t bytes = 0;
  /// Exchange only: the destination of a send, or the source of a
  /// delivery, as a local rank.
  int peer = -1;

  Packet() = default;
  Packet(std::any v, std::size_t b, int peer_rank = -1)
      : value(std::move(v)), bytes(b), peer(peer_rank) {}

  /// A fan-out reference to an already-promoted payload: O(1), no copy.
  [[nodiscard]] static Packet shared_view(std::shared_ptr<const std::any> s,
                                          std::size_t b) {
    Packet p;
    p.shared = std::move(s);
    p.bytes = b;
    return p;
  }

  /// Promotes the exclusive payload into the shared-immutable
  /// representation (moving it, not copying) and returns the shared
  /// handle.  Idempotent: an already-shared packet just hands the handle
  /// back.
  [[nodiscard]] std::shared_ptr<const std::any> share() {
    if (!shared) {
      shared = std::make_shared<const std::any>(std::move(value));
      value.reset();
    }
    return shared;
  }

  /// True for the empty packet a dead member contributes or receives.
  [[nodiscard]] bool empty() const { return !shared && !value.has_value(); }

  /// Extracts the payload as a T: moves out of an exclusive packet, copies
  /// out of a shared one (on the caller's thread, outside any engine
  /// lock).  Throws std::bad_any_cast on a type mismatch, as any_cast
  /// always did.
  template <typename T>
  [[nodiscard]] T take() {
    if (shared) return std::any_cast<const T&>(*shared);
    return std::any_cast<T>(std::move(value));
  }

  /// take(), or a value-initialized T for an empty packet.
  template <typename T>
  [[nodiscard]] T take_or_default() {
    return empty() ? T{} : take<T>();
  }
};

/// Wire size of a span of trivially copyable elements.
template <typename T>
[[nodiscard]] constexpr std::size_t byte_size(std::span<const T> s) {
  return s.size() * sizeof(T);
}

template <typename T>
[[nodiscard]] constexpr std::size_t byte_size(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace hprs::vmpi

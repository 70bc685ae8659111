#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::middleware {

/// Publish/subscribe bus modelling ROS topics (the paper's Jetson nodes pass
/// line coordinates, odometry and drive commands to each other as ROS
/// topics; the edge node passes YOLO detections to the hazard service).
///
/// A concrete bus derives from `MessageBus` and declares one `Topic<T>`
/// member per topic, next to the message types. Every delivery waits a
/// serialization/transport latency of 300 µs + U(0, 200 µs), drawn from the
/// bus's one stream, so the draws of all its topics interleave in publish
/// order.
class MessageBus {
 public:
  MessageBus(sim::Scheduler& sched, sim::RandomStream rng);
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

 private:
  template <typename T>
  friend class Topic;

  /// Runs `deliver` after one latency draw.
  void deliver_later(sim::Scheduler::Callback deliver);

  sim::Scheduler& sched_;
  sim::RandomStream rng_;
};

/// One typed topic of a bus. A publish posts one delivery per subscriber,
/// in subscription order, each holding the message by value; a topic
/// without subscribers draws nothing. Pending deliveries refer to the
/// topic, so it is neither copyable nor movable. Wiring is static: there is
/// no unsubscribe.
template <typename T>
class Topic {
 public:
  using Handler = std::function<void(const T&)>;

  explicit Topic(MessageBus& bus) : bus_{bus} {}
  Topic(const Topic&) = delete;
  Topic& operator=(const Topic&) = delete;

  void subscribe(Handler handler) { subscribers_.push_back(std::move(handler)); }

  void publish(const T& message) {
    for (std::size_t i = 0; i < subscribers_.size(); ++i) {
      // The index, not a handler pointer: a later subscribe may reallocate.
      bus_.deliver_later([this, i, message] { subscribers_[i](message); });
    }
  }

 private:
  MessageBus& bus_;
  std::vector<Handler> subscribers_;
};

}  // namespace rst::middleware

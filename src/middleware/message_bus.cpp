#include "rst/middleware/message_bus.hpp"

namespace rst::middleware {

MessageBus::MessageBus(sim::Scheduler& sched, sim::RandomStream rng)
    : sched_{sched}, rng_{rng.child("bus")} {}

void MessageBus::deliver_later(sim::Scheduler::Callback deliver) {
  const auto latency = sim::SimTime::microseconds(300) +
                       rng_.uniform_time(sim::SimTime::zero(), sim::SimTime::microseconds(200));
  sched_.post_in(latency, std::move(deliver));
}

}  // namespace rst::middleware

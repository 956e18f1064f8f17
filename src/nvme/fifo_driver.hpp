// Default NVMe driver queueing (paper Fig. 4-a): a single submission queue
// served in FIFO order, limited only by the device queue depth. This is the
// behaviour SRC replaces; it serves as the baseline in every experiment.
#pragma once

#include <deque>

#include "nvme/driver.hpp"

namespace src::nvme {

class FifoDriver final : public NvmeDriver {
 public:
  using NvmeDriver::NvmeDriver;

  std::size_t queued() const override { return queue_.size(); }

 private:
  void do_submit(IoRequest request) override {
    queue_.push_back(std::move(request));
    try_fetch();
  }

  void try_fetch() override {
    while (!queue_.empty() && in_flight() < queue_depth()) {
      if (!admissible(queue_.front(), gate_)) {
        wake_at(gate_.reopens_at(queue_.front(), sim_.now()));
        return;
      }
      IoRequest request = std::move(queue_.front());
      queue_.pop_front();
      dispatch(request);
    }
  }

  std::deque<IoRequest> queue_;
  AdmissionGate gate_;
};

}  // namespace src::nvme

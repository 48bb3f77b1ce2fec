// cxlsim/mailbox.hpp — CXL memory-device mailbox (CXL 2.0 §8.2.8.4).
//
// The subset the host stack drives:
//   0x4101 SET_PARTITION_INFO       — repartition (takes effect immediately
//                                     in the model; real devices need reset)
//   0x4200 GET_LSA / 0x4201 SET_LSA — label storage area (namespace labels,
//                                     what the DAX runtime stores)
// Capacities and persistence are read through Type3Device's accessors.
// Payloads are fixed-layout structs; unknown opcodes return Unsupported.
#pragma once

#include <cstdint>
#include <vector>

namespace cxlpmem::cxlsim {

enum class MboxStatus : std::uint16_t {
  Success = 0x0000,
  InvalidInput = 0x0002,
  Unsupported = 0x0004,
};

enum class MboxOpcode : std::uint16_t {
  SetPartitionInfo = 0x4101,
  GetLsa = 0x4200,
  SetLsa = 0x4201,
};

struct PartitionInfoPayload {
  std::uint64_t volatile_bytes;
  std::uint64_t persistent_bytes;
};

struct MboxResult {
  MboxStatus status = MboxStatus::Success;
  std::vector<std::uint8_t> payload;
};

}  // namespace cxlpmem::cxlsim

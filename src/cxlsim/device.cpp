#include "cxlsim/device.hpp"

#include <sys/mman.h>

#include <cstring>
#include <stdexcept>

namespace cxlpmem::cxlsim {

Type3Device::Type3Device(Type3Config config)
    : config_(std::move(config)),
      persistent_bytes_(config_.persistent_bytes),
      lsa_(config_.lsa_bytes, 0) {
  if (config_.capacity_bytes == 0 || config_.capacity_bytes % 64 != 0)
    throw std::invalid_argument("device capacity must be a positive multiple"
                                " of the 64-byte line size");
  if (persistent_bytes_ > config_.capacity_bytes)
    throw std::invalid_argument("persistent capacity exceeds device size");
  void* p = ::mmap(nullptr, config_.capacity_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED)
    throw std::runtime_error("cannot reserve device media mapping");
  media_ = static_cast<std::byte*>(p);
}

Type3Device::~Type3Device() {
  if (media_ != nullptr) ::munmap(media_, config_.capacity_bytes);
}

std::span<std::byte> Type3Device::media() noexcept {
  return {media_, config_.capacity_bytes};
}

MboxResult Type3Device::execute(MboxOpcode opcode,
                                std::span<const std::uint8_t> input) {
  MboxResult res;
  switch (opcode) {
    case MboxOpcode::SetPartitionInfo: {
      if (input.size() != sizeof(PartitionInfoPayload)) {
        res.status = MboxStatus::InvalidInput;
        break;
      }
      PartitionInfoPayload p;
      std::memcpy(&p, input.data(), sizeof(p));
      if (p.volatile_bytes + p.persistent_bytes != config_.capacity_bytes) {
        res.status = MboxStatus::InvalidInput;
        break;
      }
      persistent_bytes_ = p.persistent_bytes;
      break;
    }
    case MboxOpcode::GetLsa: {
      res.payload = lsa_;
      break;
    }
    case MboxOpcode::SetLsa: {
      if (input.size() > lsa_.size()) {
        res.status = MboxStatus::InvalidInput;
        break;
      }
      std::memcpy(lsa_.data(), input.data(), input.size());
      break;
    }
    default:
      res.status = MboxStatus::Unsupported;
      break;
  }
  return res;
}

}  // namespace cxlpmem::cxlsim

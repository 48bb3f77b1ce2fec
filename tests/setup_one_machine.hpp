// tests/setup_one_machine.hpp — the paper's Setup #1 with its CXL memory's
// description edited, for runtimes a test hands to RuntimeBuilder::machine().
//
// simkit::Machine is immutable, so the machine is rebuilt component by
// component from make_setup_one().  Every id (the sockets, both DDR5 DIMMs,
// the CXL memory and the links) stays what make_setup_one() returned.
#pragma once

#include <utility>

#include "simkit/profiles.hpp"

template <typename Edit>
cxlpmem::simkit::profiles::SetupOne setup_one_with_cxl(Edit edit) {
  namespace simkit = cxlpmem::simkit;
  simkit::profiles::SetupOne ids = simkit::profiles::make_setup_one();
  simkit::Machine machine;
  for (simkit::SocketId s = 0; s < ids.machine.socket_count(); ++s)
    machine.add_socket(ids.machine.socket(s));
  for (simkit::MemoryId m = 0; m < ids.machine.memory_count(); ++m) {
    simkit::MemoryDesc desc = ids.machine.memory(m);
    if (m == ids.cxl) edit(desc);
    machine.add_memory(std::move(desc));
  }
  for (simkit::LinkId l = 0; l < ids.machine.link_count(); ++l)
    machine.add_link(ids.machine.link(l));
  ids.machine = std::move(machine);
  return ids;
}

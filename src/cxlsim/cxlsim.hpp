// cxlsim/cxlsim.hpp — umbrella header for the CXL device/fabric model.
#pragma once

#include "cxlsim/device.hpp"       // IWYU pragma: export
#include "cxlsim/flit.hpp"         // IWYU pragma: export
#include "cxlsim/fpga_proto.hpp"   // IWYU pragma: export
#include "cxlsim/mailbox.hpp"      // IWYU pragma: export
#include "cxlsim/transaction.hpp"  // IWYU pragma: export

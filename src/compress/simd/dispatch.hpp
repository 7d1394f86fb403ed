#pragma once
// The dispatch switch now lives in support/dispatch.hpp, where the
// checksum kernels can reach it too. This header keeps the old include
// path building for code outside src/ that still names it.

#include "support/dispatch.hpp"  // IWYU pragma: export

// Trips env.getenv twice: a raw read and a raw write. Config must flow
// through util::env and the knob table instead.
#include <cstdlib>

const char* threads_knob() { return std::getenv("H2R_THREADS"); }

void force_seed() { ::setenv("H2R_SEED", "42", 1); }

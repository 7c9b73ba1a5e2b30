#ifndef GFAIR_PERFBENCH_SELFTEST_H_
#define GFAIR_PERFBENCH_SELFTEST_H_

#include <ostream>

namespace gfair::perfbench {

// Runs the helper self-tests, logging each failure; true when all pass.
bool RunSelfTests(std::ostream& log);

}  // namespace gfair::perfbench

#endif  // GFAIR_PERFBENCH_SELFTEST_H_

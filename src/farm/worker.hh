/**
 * @file
 * The farm_worker entry point, run in a forked child of the
 * coordinator (fork without exec: a cell's StreamFactory is an
 * arbitrary closure, so the campaign definition rides into the child
 * as inherited memory instead of needing a serializable spec).
 *
 * The worker is a message loop over two inherited pipe fds: it
 * announces itself (Hello), then runs whatever cells the coordinator
 * assigns. With a checkpoint cadence it ships an unsolicited sealed
 * snapshot image every checkpointEvery references -- the
 * coordinator's resume point when this worker is killed, and its
 * migration handle when it preempts the cell. A Preempt request (or
 * SIGTERM, or a `preemptFirst` flag riding in the order itself) makes
 * the worker checkpoint at the next slice boundary, ship the image
 * flagged `stopped`, and drop the cell so another worker can resume
 * it; every path ends in results bit-identical to an uninterrupted
 * run, which the farm oracle enforces. An order's killAfterImages is
 * the seeded chaos kill: the worker exits abruptly, without a Done,
 * right at that point of the cell.
 */

#ifndef SASOS_FARM_WORKER_HH
#define SASOS_FARM_WORKER_HH

#include "farm/campaign.hh"

namespace sasos::farm
{

/** Exit status of a worker that left at its order's chaos point. */
constexpr int kChaosExitStatus = 86;

/**
 * Serve cell assignments until Shutdown or EOF.
 * @param campaign the (inherited) campaign; cells are named by id.
 * @param rfd pipe end carrying coordinator -> worker frames.
 * @param wfd pipe end carrying worker -> coordinator frames.
 * @param worker this worker's farm index, echoed in Hello.
 * @return process exit status (0 on clean shutdown,
 *         kChaosExitStatus at a chaos point).
 */
int workerMain(const Campaign &campaign, int rfd, int wfd, u64 worker);

} // namespace sasos::farm

#endif // SASOS_FARM_WORKER_HH

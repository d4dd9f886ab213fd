/**
 * @file
 * The sweep farm coordinator: shards a campaign across forked worker
 * processes, distributes cells through a work queue, and uses the
 * snapshot subsystem for elastic, crash-tolerant scheduling.
 *
 * Workers talk over pipes in envelope-checked frames (wire.hh). The
 * coordinator's event loop assigns cells to idle workers, drains
 * checkpoint images (each preflighted before it is accepted as a
 * resume point, and again before hand-off), and merges finished
 * CellResults *by cell id*, so the merged output is independent of
 * which worker ran what, in which order, and how many times a cell
 * was restarted.
 *
 * Failure handling: a worker that dies (crash, chaos exit, or
 * watchdog timeout), poisons its frame stream, or ships a corrupt
 * image is reaped and its cell is requeued -- resumed from the last
 * good checkpoint image when one exists, restarted from the cell
 * start otherwise -- at the *back* of the queue (the retry backoff),
 * with a per-cell attempt cap as the giving-up point. The pool is
 * elastic: every death is replaced by a fresh fork while work
 * remains, so the farm finishes at full width even under a hostile
 * kill schedule.
 *
 * Chaos: killRate is a seeded per-cell probability that the worker
 * serving the cell dies once -- on receipt of the order or right after
 * shipping a seeded number of checkpoint images, so both
 * restart-from-scratch and resume-from-image recovery paths are
 * exercised. The death point rides in the order
 * (Message::killAfterImages) and the worker _exits there, so it can
 * never land after the cell's Done: FarmStats is a pure function of
 * the campaign, the options and killSeed. Each cell is doomed at most
 * once, so chaos never livelocks a campaign. migrateRate
 * instead preempts the cell at its first checkpoint and resumes it on
 * a different worker: the graceful elasticity path.
 *
 * Every recovery path lands on the same guarantee, enforced by
 * bench_farm and tests/farm_test.cc: the farmed results are
 * bit-identical -- stats dump, cycle account, BENCH JSON -- to a
 * serial SweepRunner run of the same campaign.
 */

#ifndef SASOS_FARM_COORDINATOR_HH
#define SASOS_FARM_COORDINATOR_HH

#include <string>
#include <vector>

#include "farm/campaign.hh"

namespace sasos::farm
{

/** Farm shape and failure-injection knobs. */
struct FarmOptions
{
    /** Worker processes (farm_workers=). */
    unsigned workers = 4;
    /** References between worker checkpoints; 0 disables mid-cell
     * checkpointing (farm_checkpoint_every=). */
    u64 checkpointEvery = 0;
    /** Adapt the checkpoint cadence to the observed kill rate
     * (farm_adaptive=): the more deaths per assignment the farm has
     * seen, the denser the checkpoints, down to base/8. Purely a
     * lost-work/IO trade -- results stay bit-identical to serial
     * either way. */
    bool adaptiveCheckpoint = false;
    /** Seeded probability of one chaos worker death per cell
     * (farm_kill_rate=). */
    double killRate = 0.0;
    /** Seeded probability of one preempt-and-migrate per cell
     * (farm_migrate_rate=). */
    double migrateRate = 0.0;
    /** Chaos schedule seed (farm_kill_seed=). */
    u64 killSeed = 1;
    /** Kill a busy worker silent for this long (watchdog). */
    double timeoutSec = 120.0;
    /** Give up on a cell after this many attempts. */
    unsigned maxAttempts = 8;

    static FarmOptions fromOptions(const Options &options);
};

/** What the farm did to finish the campaign. */
struct FarmStats
{
    u64 forks = 0;
    u64 deaths = 0;
    /** Workers that exited at their order's chaos point. */
    u64 chaosKills = 0;
    u64 timeouts = 0;
    u64 retries = 0;
    u64 checkpointImages = 0;
    u64 preempts = 0;
    u64 migrations = 0;
    u64 resumes = 0;
    u64 rejectedImages = 0;
    u64 poisonedFrames = 0;
    u64 duplicateResults = 0;
};

/** The farmed campaign's outcome: results in cell order. */
struct FarmResult
{
    bool ok = false;
    std::string error;
    std::vector<CellResult> results;
    FarmStats stats;
    double wallSeconds = 0.0;
};

/**
 * The adaptive cadence: scale `base` down by the observed death rate
 * (`deaths` worker deaths over `assignments` orders issued so far).
 * A farm that never loses workers keeps the sparse base cadence; a
 * farm bleeding workers converges toward base/8, so at most ~1/8 of
 * base's worth of references can be lost to any one death. Returns 0
 * iff base is 0 (adaptivity never turns checkpointing on or off,
 * which the chaos/migration plumbing relies on).
 */
u64 adaptiveCheckpointEvery(u64 base, u64 assignments, u64 deaths);

/** Run the whole campaign across a forked worker pool. */
FarmResult runFarm(const Campaign &campaign, const FarmOptions &options);

} // namespace sasos::farm

#endif // SASOS_FARM_COORDINATOR_HH

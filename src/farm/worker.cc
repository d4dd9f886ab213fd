#include "farm/worker.hh"

#include <csignal>
#include <unistd.h>

#include "farm/wire.hh"

namespace sasos::farm
{

namespace
{

volatile std::sig_atomic_t g_sigterm = 0;

void
onSigterm(int)
{
    g_sigterm = 1;
}

/** A control frame consumed mid-cell; tells the cell loop what to do
 * with the execution it is holding. */
struct CellVerdict
{
    bool preempt = false;
    bool shutdown = false;
};

/** Drain any control frames that arrived while the slice ran.
 * Preempt only counts when it names the running cell -- a stale
 * preempt for a cell this worker already finished must not stop the
 * next one. */
CellVerdict
drainControl(int rfd, u64 running_cell)
{
    CellVerdict verdict;
    std::string err;
    while (!verdict.shutdown && readableNow(rfd)) {
        std::vector<u8> frame;
        const ReadStatus status = readFrame(rfd, frame, err);
        if (status != ReadStatus::Frame) {
            // Coordinator gone; no one is left to ship results to.
            verdict.shutdown = true;
            break;
        }
        const Message message = decodeMessage(frame);
        switch (message.kind) {
          case MsgKind::Preempt:
            if (message.cell == running_cell)
                verdict.preempt = true;
            break;
          case MsgKind::Shutdown:
            verdict.shutdown = true;
            break;
          default:
            SASOS_FATAL("farm worker got message kind ",
                        static_cast<unsigned>(message.kind),
                        " while running a cell");
        }
    }
    if (g_sigterm)
        verdict.preempt = true;
    return verdict;
}

/** Ship a checkpoint of the running execution. */
bool
sendImage(int wfd, const CellExecution &exec, bool stopped)
{
    Message message;
    message.kind = MsgKind::Image;
    message.cell = exec.cell().id;
    message.refsDone = exec.refsDone();
    message.completed = exec.completed();
    message.failed = exec.failed();
    message.stopped = stopped;
    message.image = exec.checkpoint().bytes;
    return writeFrame(wfd, encodeMessage(message));
}

/** How one assignment left the worker. */
enum class CellEnd
{
    /** Ready for the next order. */
    Next,
    /** Shutdown, or the coordinator is gone. */
    Exit,
    /** The order's chaos point was reached. */
    Chaos,
};

/** Run one assignment (fresh or resumed) to completion, preemption,
 * shutdown or its chaos point. */
CellEnd
serveCell(const Campaign &campaign, const Message &order, int rfd,
          int wfd)
{
    const SweepCell *cell = campaign.byId(order.cell);
    if (cell == nullptr)
        SASOS_FATAL("farm worker assigned unknown cell id ", order.cell);
    if (order.killAfterImages == 0)
        return CellEnd::Chaos;
    const u32 tid = static_cast<u32>(cell->id) + 1;

    std::unique_ptr<CellExecution> exec;
    if (order.kind == MsgKind::Resume) {
        snap::Snapshot image;
        image.bytes = order.image;
        exec = std::make_unique<CellExecution>(
            *cell, tid, CellExecution::kForRestore);
        exec->resume(image, order.refsDone, order.completed, order.failed);
    } else {
        exec = std::make_unique<CellExecution>(*cell, tid);
    }

    // With no checkpoint cadence the whole cell is one slice; control
    // frames are then only honored between cells.
    const u64 slice = order.checkpointEvery ? order.checkpointEvery
                                            : cell->references;
    const auto next = [](bool written) {
        return written ? CellEnd::Next : CellEnd::Exit;
    };
    u64 images = 0;
    while (!exec->done()) {
        exec->step(slice);
        const CellVerdict verdict = drainControl(rfd, cell->id);
        if (verdict.shutdown)
            return CellEnd::Exit;
        if (exec->done())
            break;
        if (verdict.preempt || order.preemptFirst) {
            // Final image, flagged stopped: the coordinator migrates
            // the cell to another worker from exactly this point.
            return next(sendImage(wfd, *exec, true));
        }
        if (order.checkpointEvery) {
            if (!sendImage(wfd, *exec, false))
                return CellEnd::Exit;
            if (++images == order.killAfterImages)
                return CellEnd::Chaos;
        }
    }

    Message done;
    done.kind = MsgKind::Done;
    done.cell = cell->id;
    done.result = exec->finish();
    return next(writeFrame(wfd, encodeMessage(done)));
}

} // namespace

int
workerMain(const Campaign &campaign, int rfd, int wfd, u64 worker)
{
    // The coordinator may vanish (or SIGKILL a sibling holding the
    // pipe); writes must fail with EPIPE, not kill the process.
    std::signal(SIGPIPE, SIG_IGN);
    // SIGTERM is the out-of-band preempt: checkpoint at the next
    // slice boundary, ship the image and keep serving.
    std::signal(SIGTERM, onSigterm);

    Message hello;
    hello.kind = MsgKind::Hello;
    hello.worker = worker;
    if (!writeFrame(wfd, encodeMessage(hello)))
        return 1;

    std::string err;
    for (;;) {
        std::vector<u8> frame;
        const ReadStatus status = readFrame(rfd, frame, err);
        if (status == ReadStatus::Eof)
            return 0;
        if (status == ReadStatus::Error)
            SASOS_FATAL("farm worker ", worker, ": ", err);
        const Message message = decodeMessage(frame);
        switch (message.kind) {
          case MsgKind::Shutdown:
            return 0;
          case MsgKind::Assign:
          case MsgKind::Resume:
            switch (serveCell(campaign, message, rfd, wfd)) {
              case CellEnd::Next:
                break;
              case CellEnd::Exit:
                return 0;
              case CellEnd::Chaos:
                return kChaosExitStatus;
            }
            break;
          case MsgKind::Preempt:
            // Stale: the cell it names was already finished (its
            // Done crossed the preempt on the wire). Ignore.
            break;
          default:
            SASOS_FATAL("farm worker ", worker,
                        " got unexpected message kind ",
                        static_cast<unsigned>(message.kind));
        }
        g_sigterm = 0;
    }
}

} // namespace sasos::farm

// Conventional ARIES undo: follow each loser transaction's backward chain,
// undoing its updates in reverse chronological order, continually taking the
// maximum outstanding LSN across losers. CLR undo-next pointers make the
// pass idempotent across crashes during recovery.
//
// Used when delegation is disabled, and by the eager / lazy-rewrite
// baselines after history has been physically rewritten (the chains then
// reflect responsibility, so chain undo is correct for them). It serves
// both restart undo and TxnManager's rollbacks, whole or to a savepoint.

#ifndef ARIESRH_RECOVERY_UNDO_CONVENTIONAL_H_
#define ARIESRH_RECOVERY_UNDO_CONVENTIONAL_H_

#include <unordered_map>

#include "recovery/redo.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// Undoes all updates on the backward chains headed by `heads` (txn -> chain
/// head LSN, in/out) that lie above `down_to`, handing each to `sink` on
/// behalf of the chain's owner; the sink's CLRs advance the heads. DELEGATE
/// records encountered on a chain are traversed through the side (tor/tee)
/// belonging to the chain's owner. `down_to` is a partial rollback's
/// savepoint; 0 undoes the chains whole.
Status ChainUndo(LogManager* log, Stats* stats, UndoSink* sink,
                 std::unordered_map<TxnId, Lsn>* heads, Lsn down_to = 0);

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_UNDO_CONVENTIONAL_H_

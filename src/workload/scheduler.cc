#include "workload/scheduler.h"

#include <chrono>
#include <thread>

namespace ariesrh::workload {

size_t StepScheduler::AddProgram(TxnProgram program) {
  ProgramState state;
  state.program = std::move(program);
  programs_.push_back(std::move(state));
  return programs_.size() - 1;
}

Status StepScheduler::Run() {
  return options_.worker_threads > 1 ? RunThreaded() : RunSerial();
}

Status StepScheduler::RunSerial() {
  // Start every program's transaction.
  for (ProgramState& state : programs_) {
    ARIESRH_ASSIGN_OR_RETURN(state.txn, db_->Begin());
  }

  while (true) {
    // Collect the runnable programs.
    std::vector<size_t> runnable;
    for (size_t i = 0; i < programs_.size(); ++i) {
      if (!programs_[i].done) runnable.push_back(i);
    }
    if (runnable.empty()) break;
    ProgramState& state = programs_[runnable[rng_.Uniform(runnable.size())]];
    ARIESRH_RETURN_IF_ERROR(StepProgram(&state));
  }
  return Status::OK();
}

Status StepScheduler::RunThreaded() {
  next_program_.store(0, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  first_error_ = Status::OK();

  const size_t workers =
      std::min(options_.worker_threads, std::max<size_t>(programs_.size(), 1));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([this, w] { WorkerLoop(w); });
  }
  for (std::thread& t : pool) t.join();

  std::lock_guard lock(error_mu_);
  return first_error_;
}

void StepScheduler::WorkerLoop(size_t worker_index) {
  // One commit-latency series per worker, so a straggler worker shows.
  obs::Histogram* commit_ns = nullptr;
  if (obs::MetricsRegistry* registry = db_->mutable_stats()->registry()) {
    commit_ns = registry->GetHistogram(
        "ariesrh_sched_commit_ns", obs::DefaultLatencyBoundsNs(),
        "worker=\"" + std::to_string(worker_index) + "\"");
  }

  while (!stop_.load(std::memory_order_relaxed)) {
    const size_t index = next_program_.fetch_add(1, std::memory_order_relaxed);
    if (index >= programs_.size()) return;
    ProgramState& state = programs_[index];
    state.commit_ns = commit_ns;

    Result<TxnId> begin = db_->Begin();
    if (!begin.ok()) {
      std::lock_guard lock(error_mu_);
      if (first_error_.ok()) first_error_ = begin.status();
      stop_.store(true, std::memory_order_relaxed);
      return;
    }
    state.txn = *begin;

    // Drive this one program to completion. Unlike the serial mode there
    // is no other program to interleave on kBusy — the *other workers* are
    // the concurrency — so a busy step just yields and retries.
    while (!state.done && !stop_.load(std::memory_order_relaxed)) {
      const int busy_before = state.busy_streak;
      const Status status = StepProgram(&state);
      if (!status.ok()) {
        std::lock_guard lock(error_mu_);
        if (first_error_.ok()) first_error_ = status;
        stop_.store(true, std::memory_order_relaxed);
        return;
      }
      if (state.busy_streak > busy_before) std::this_thread::yield();
    }
  }
}

Status StepScheduler::StepProgram(ProgramState* state) {
  if (state->next_step >= state->program.steps.size()) {
    // Program body finished: commit unless the body already resolved it.
    // IsActive, not shard 0's Find: a sharded transaction may be enlisted
    // anywhere (or nowhere yet) and must still be committed here.
    if (db_->IsActive(state->txn)) {
      const auto start = std::chrono::steady_clock::now();
      Status status = db_->Commit(state->txn);
      if (status.IsBusy()) {
        ++busy_events_;
        ++db_->mutable_stats()->sched_busy_events;
        if (++state->busy_streak > options_.busy_retries_before_restart) {
          return RestartProgram(state);
        }
        return Status::OK();  // retried on a later turn
      }
      if (status.IsAborted()) {
        return RestartProgram(state);  // cascade victim
      }
      ARIESRH_RETURN_IF_ERROR(status);
      if (state->commit_ns != nullptr) {
        state->commit_ns->Observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
      }
    }
    state->done = true;
    state->outcome = ProgramOutcome::kCommitted;
    return Status::OK();
  }

  Status status = state->program.steps[state->next_step](db_, state->txn);
  if (status.ok()) {
    ++state->next_step;
    state->busy_streak = 0;
    return Status::OK();
  }
  if (status.IsBusy()) {
    ++busy_events_;
    ++db_->mutable_stats()->sched_busy_events;
    if (++state->busy_streak > options_.busy_retries_before_restart) {
      return RestartProgram(state);
    }
    return Status::OK();
  }
  // A non-retryable failure: the program aborts its transaction and fails.
  if (db_->IsActive(state->txn)) {
    ARIESRH_RETURN_IF_ERROR(db_->Abort(state->txn));
  }
  state->done = true;
  state->outcome = ProgramOutcome::kFailed;
  return Status::OK();
}

Status StepScheduler::RestartProgram(ProgramState* state) {
  // Release everything by aborting, then run again from the first step.
  if (db_->IsActive(state->txn)) {
    ARIESRH_RETURN_IF_ERROR(db_->Abort(state->txn));
  }
  ++restarts_;
  ++db_->mutable_stats()->sched_restarts;
  if (++state->restarts > options_.max_restarts) {
    state->done = true;
    state->outcome = ProgramOutcome::kFailed;
    return Status::OK();
  }
  ARIESRH_ASSIGN_OR_RETURN(state->txn, db_->Begin());
  state->next_step = 0;
  state->busy_streak = 0;
  return Status::OK();
}

}  // namespace ariesrh::workload

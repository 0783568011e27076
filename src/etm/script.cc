#include "etm/script.h"

#include <charconv>
#include <sstream>

namespace ariesrh::etm {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;  // comment until end of line
    tokens.push_back(token);
  }
  return tokens;
}

Result<int64_t> ParseInt(const std::string& token) {
  int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not an integer: '" + token + "'");
  }
  return value;
}

Result<ObjectId> ParseObject(const std::string& token) {
  ARIESRH_ASSIGN_OR_RETURN(int64_t value, ParseInt(token));
  if (value < 0) {
    return Status::InvalidArgument("object ids are non-negative: " + token);
  }
  return static_cast<ObjectId>(value);
}

Status ArityError(const std::vector<std::string>& tokens, const char* usage) {
  return Status::InvalidArgument("usage: " + std::string(usage) + " (got '" +
                                 tokens[0] + "' with " +
                                 std::to_string(tokens.size() - 1) +
                                 " argument(s))");
}

}  // namespace

TxnId ScriptRunner::Lookup(const std::string& name) const {
  auto it = txns_.find(name);
  return it == txns_.end() ? kInvalidTxn : it->second;
}

Result<TxnId> ScriptRunner::Txn(const std::string& name) const {
  auto it = txns_.find(name);
  if (it == txns_.end()) {
    return Status::NotFound("unknown transaction name '" + name + "'");
  }
  return it->second;
}

Status ScriptRunner::Run(const std::string& script) {
  std::istringstream stream(script);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    Status status = RunLine(tokens);
    if (!status.ok()) {
      return Status::IllegalState("line " + std::to_string(line_no) + " ('" +
                                  tokens[0] + "'): " + status.ToString());
    }
  }
  return Status::OK();
}

Status ScriptRunner::RunLine(const std::vector<std::string>& tokens) {
  if (tokens[0] == "expect-error") {
    if (tokens.size() < 2) return ArityError(tokens, "expect-error <cmd...>");
    std::vector<std::string> inner(tokens.begin() + 1, tokens.end());
    Status status = RunCommand(inner);
    if (status.ok()) {
      return Status::IllegalState("command unexpectedly succeeded");
    }
    trace_.push_back("expect-error: got " + status.ToString());
    return Status::OK();
  }
  return RunCommand(tokens);
}

Status ScriptRunner::RunCommand(const std::vector<std::string>& tokens) {
  const std::string& cmd = tokens[0];

  if (cmd == "begin") {
    if (tokens.size() != 2) return ArityError(tokens, "begin <txn>");
    if (txns_.contains(tokens[1])) {
      return Status::InvalidArgument("transaction name '" + tokens[1] +
                                     "' already used");
    }
    ARIESRH_ASSIGN_OR_RETURN(TxnId id, db_->Begin());
    txns_[tokens[1]] = id;
    trace_.push_back("begin " + tokens[1] + " -> t" + std::to_string(id));
    return Status::OK();
  }

  if (cmd == "set" || cmd == "add") {
    if (tokens.size() != 4) return ArityError(tokens, "set|add <txn> <ob> <v>");
    ARIESRH_ASSIGN_OR_RETURN(TxnId txn, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(ObjectId ob, ParseObject(tokens[2]));
    ARIESRH_ASSIGN_OR_RETURN(int64_t value, ParseInt(tokens[3]));
    ARIESRH_RETURN_IF_ERROR(cmd == "set" ? db_->Set(txn, ob, value)
                                         : db_->Add(txn, ob, value));
    trace_.push_back(cmd + " " + tokens[1] + " ob" + tokens[2] + " " +
                     tokens[3]);
    return Status::OK();
  }

  if (cmd == "read") {
    if (tokens.size() != 3) return ArityError(tokens, "read <txn> <ob>");
    ARIESRH_ASSIGN_OR_RETURN(TxnId txn, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(ObjectId ob, ParseObject(tokens[2]));
    ARIESRH_ASSIGN_OR_RETURN(int64_t value, db_->Read(txn, ob));
    trace_.push_back("read " + tokens[1] + " ob" + tokens[2] + " -> " +
                     std::to_string(value));
    return Status::OK();
  }

  if (cmd == "delegate") {
    if (tokens.size() < 4) {
      return ArityError(tokens, "delegate <from> <to> <ob> [<ob>...]");
    }
    ARIESRH_ASSIGN_OR_RETURN(TxnId from, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(TxnId to, Txn(tokens[2]));
    std::vector<ObjectId> objects;
    for (size_t i = 3; i < tokens.size(); ++i) {
      ARIESRH_ASSIGN_OR_RETURN(ObjectId ob, ParseObject(tokens[i]));
      objects.push_back(ob);
    }
    ARIESRH_RETURN_IF_ERROR(db_->Delegate(from, to, DelegationSpec::Objects(objects)));
    trace_.push_back("delegate " + tokens[1] + " => " + tokens[2]);
    return Status::OK();
  }

  if (cmd == "delegate-last") {
    if (tokens.size() != 4) {
      return ArityError(tokens, "delegate-last <from> <to> <ob>");
    }
    ARIESRH_ASSIGN_OR_RETURN(TxnId from, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(TxnId to, Txn(tokens[2]));
    ARIESRH_ASSIGN_OR_RETURN(ObjectId ob, ParseObject(tokens[3]));
    const Transaction* tx =
        db_->shard(db_->ShardOf(ob))->txn_manager()->Find(from);
    if (tx == nullptr || !tx->IsResponsibleFor(ob)) {
      return Status::InvalidArgument(tokens[1] +
                                     " is not responsible for ob" +
                                     tokens[3]);
    }
    // The most recent update by `from` itself: the greatest end among its
    // own-invoked scopes.
    Lsn last = kInvalidLsn;
    for (const Scope& scope : tx->ob_list.at(ob).scopes) {
      if (scope.invoker == from &&
          (last == kInvalidLsn || scope.last > last)) {
        last = scope.last;
      }
    }
    if (last == kInvalidLsn) {
      return Status::InvalidArgument(tokens[1] + " never updated ob" +
                                     tokens[3] + " itself");
    }
    ARIESRH_RETURN_IF_ERROR(
        db_->Delegate(from, to, DelegationSpec::Operations(ob, last, last)));
    trace_.push_back("delegate-last " + tokens[1] + " => " + tokens[2]);
    return Status::OK();
  }

  if (cmd == "backup") {
    if (tokens.size() != 2) return ArityError(tokens, "backup <name>");
    ARIESRH_ASSIGN_OR_RETURN(Database::BackupImage image, db_->Backup());
    backups_[tokens[1]] = std::move(image);
    trace_.push_back("backup " + tokens[1]);
    return Status::OK();
  }
  if (cmd == "media-failure") {
    db_->SimulateMediaFailure();
    trace_.push_back("media-failure");
    return Status::OK();
  }
  if (cmd == "restore") {
    if (tokens.size() != 2) return ArityError(tokens, "restore <name>");
    auto it = backups_.find(tokens[1]);
    if (it == backups_.end()) {
      return Status::NotFound("unknown backup '" + tokens[1] + "'");
    }
    ARIESRH_RETURN_IF_ERROR(db_->RestoreFromBackup(it->second));
    trace_.push_back("restore " + tokens[1]);
    return Status::OK();
  }

  if (cmd == "delegate-all") {
    if (tokens.size() != 3) return ArityError(tokens, "delegate-all <f> <t>");
    ARIESRH_ASSIGN_OR_RETURN(TxnId from, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(TxnId to, Txn(tokens[2]));
    ARIESRH_RETURN_IF_ERROR(db_->Delegate(from, to, DelegationSpec::All()));
    trace_.push_back("delegate-all " + tokens[1] + " => " + tokens[2]);
    return Status::OK();
  }

  if (cmd == "permit") {
    if (tokens.size() != 4) {
      return ArityError(tokens, "permit <owner> <grantee> <ob>");
    }
    ARIESRH_ASSIGN_OR_RETURN(TxnId owner, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(TxnId grantee, Txn(tokens[2]));
    ARIESRH_ASSIGN_OR_RETURN(ObjectId ob, ParseObject(tokens[3]));
    ARIESRH_RETURN_IF_ERROR(db_->Permit(owner, grantee, ob));
    trace_.push_back("permit " + tokens[1] + " -> " + tokens[2]);
    return Status::OK();
  }

  if (cmd == "depend") {
    if (tokens.size() != 4) {
      return ArityError(tokens, "depend <type> <dependent> <on>");
    }
    DependencyType type;
    if (tokens[1] == "commit") {
      type = DependencyType::kCommit;
    } else if (tokens[1] == "strong-commit") {
      type = DependencyType::kStrongCommit;
    } else if (tokens[1] == "abort") {
      type = DependencyType::kAbort;
    } else {
      return Status::InvalidArgument("unknown dependency type '" + tokens[1] +
                                     "'");
    }
    ARIESRH_ASSIGN_OR_RETURN(TxnId dependent, Txn(tokens[2]));
    ARIESRH_ASSIGN_OR_RETURN(TxnId on, Txn(tokens[3]));
    ARIESRH_RETURN_IF_ERROR(db_->FormDependency(type, dependent, on));
    trace_.push_back("depend " + tokens[1] + " " + tokens[2] + " on " +
                     tokens[3]);
    return Status::OK();
  }

  if (cmd == "savepoint") {
    if (tokens.size() != 3) return ArityError(tokens, "savepoint <txn> <sp>");
    ARIESRH_ASSIGN_OR_RETURN(TxnId txn, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(Lsn sp, db_->Savepoint(txn));
    savepoints_[tokens[1] + ":" + tokens[2]] = sp;
    trace_.push_back("savepoint " + tokens[1] + " " + tokens[2]);
    return Status::OK();
  }

  if (cmd == "rollback-to") {
    if (tokens.size() != 3) {
      return ArityError(tokens, "rollback-to <txn> <sp>");
    }
    ARIESRH_ASSIGN_OR_RETURN(TxnId txn, Txn(tokens[1]));
    auto it = savepoints_.find(tokens[1] + ":" + tokens[2]);
    if (it == savepoints_.end()) {
      return Status::NotFound("unknown savepoint '" + tokens[2] + "' of " +
                              tokens[1]);
    }
    ARIESRH_RETURN_IF_ERROR(db_->RollbackTo(txn, it->second));
    trace_.push_back("rollback-to " + tokens[1] + " " + tokens[2]);
    return Status::OK();
  }

  if (cmd == "commit" || cmd == "abort") {
    if (tokens.size() != 2) return ArityError(tokens, "commit|abort <txn>");
    ARIESRH_ASSIGN_OR_RETURN(TxnId txn, Txn(tokens[1]));
    ARIESRH_RETURN_IF_ERROR(cmd == "commit" ? db_->Commit(txn)
                                            : db_->Abort(txn));
    trace_.push_back(cmd + " " + tokens[1]);
    return Status::OK();
  }

  if (cmd == "checkpoint") {
    ARIESRH_RETURN_IF_ERROR(db_->Checkpoint());
    trace_.push_back("checkpoint");
    return Status::OK();
  }
  if (cmd == "flush") {
    ARIESRH_RETURN_IF_ERROR(db_->Sync());
    trace_.push_back("flush");
    return Status::OK();
  }
  if (cmd == "crash") {
    db_->SimulateCrash();
    trace_.push_back("crash");
    return Status::OK();
  }
  if (cmd == "recover") {
    ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<RecoveryHandle> handle,
                             db_->StartRecovery());
    ARIESRH_ASSIGN_OR_RETURN(RecoveryManager::Outcome outcome, handle->Await());
    trace_.push_back("recover: winners=" + std::to_string(outcome.winners) +
                     " losers=" + std::to_string(outcome.losers));
    return Status::OK();
  }
  if (cmd == "archive") {
    ARIESRH_ASSIGN_OR_RETURN(uint64_t archived, db_->ArchiveLog());
    trace_.push_back("archive: " + std::to_string(archived) + " records");
    return Status::OK();
  }

  if (cmd == "expect") {
    if (tokens.size() != 3) return ArityError(tokens, "expect <ob> <value>");
    ARIESRH_ASSIGN_OR_RETURN(ObjectId ob, ParseObject(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(int64_t want, ParseInt(tokens[2]));
    ARIESRH_ASSIGN_OR_RETURN(int64_t got, db_->ReadCommitted(ob));
    if (got != want) {
      return Status::IllegalState("expect failed: ob" + tokens[1] + " is " +
                                  std::to_string(got) + ", wanted " +
                                  tokens[2]);
    }
    trace_.push_back("expect ob" + tokens[1] + " == " + tokens[2] + " OK");
    return Status::OK();
  }

  if (cmd == "expect-responsible") {
    if (tokens.size() != 4) {
      return ArityError(tokens, "expect-responsible <invoker> <ob> <resp>");
    }
    ARIESRH_ASSIGN_OR_RETURN(TxnId invoker, Txn(tokens[1]));
    ARIESRH_ASSIGN_OR_RETURN(ObjectId ob, ParseObject(tokens[2]));
    ARIESRH_ASSIGN_OR_RETURN(TxnId want, Txn(tokens[3]));
    const Transaction* tx =
        db_->shard(db_->ShardOf(ob))->txn_manager()->Find(want);
    if (tx == nullptr || !tx->IsResponsibleFor(ob)) {
      return Status::IllegalState(tokens[3] + " is not responsible for ob" +
                                  tokens[2]);
    }
    bool covers_invoker = false;
    for (const Scope& scope : tx->ob_list.at(ob).scopes) {
      if (scope.invoker == invoker) covers_invoker = true;
    }
    if (!covers_invoker) {
      return Status::IllegalState(tokens[3] + " holds ob" + tokens[2] +
                                  " but no scope of invoker " + tokens[1]);
    }
    trace_.push_back("expect-responsible ob" + tokens[2] + " OK");
    return Status::OK();
  }

  return Status::InvalidArgument("unknown command '" + cmd + "'");
}

}  // namespace ariesrh::etm

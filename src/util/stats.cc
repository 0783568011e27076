#include "util/stats.h"

#include <cstring>
#include <sstream>

#include "obs/observability.h"

namespace ariesrh {

Stats::Stats(const Stats& other) {
#define ARIESRH_STATS_COPY_FIELD(group, field, label) \
  field = other.field.value();
  ARIESRH_STATS_FIELDS(ARIESRH_STATS_COPY_FIELD)
#undef ARIESRH_STATS_COPY_FIELD
}

Stats& Stats::operator=(const Stats& other) {
#define ARIESRH_STATS_ASSIGN_FIELD(group, field, label) \
  field = other.field.value();
  ARIESRH_STATS_FIELDS(ARIESRH_STATS_ASSIGN_FIELD)
#undef ARIESRH_STATS_ASSIGN_FIELD
  return *this;
}

Stats Stats::Delta(const Stats& base) const {
  Stats d;
#define ARIESRH_STATS_DELTA_FIELD(group, field, label) \
  d.field = field.value() - base.field.value();
  ARIESRH_STATS_FIELDS(ARIESRH_STATS_DELTA_FIELD)
#undef ARIESRH_STATS_DELTA_FIELD
  return d;
}

std::string Stats::ToString() const {
  std::ostringstream os;
  const char* current_group = "";
#define ARIESRH_STATS_PRINT_FIELD(group, field, label)            \
  if (std::strcmp(current_group, #group) != 0) {                  \
    if (*current_group != '\0') os << "\n";                       \
    os << #group ": ";                                            \
    current_group = #group;                                       \
  } else {                                                        \
    os << " ";                                                    \
  }                                                               \
  os << label "=" << field.value();
  ARIESRH_STATS_FIELDS(ARIESRH_STATS_PRINT_FIELD)
#undef ARIESRH_STATS_PRINT_FIELD
  return os.str();
}

void Stats::AttachObservability(obs::Observability* obs,
                                const std::string& labels) {
  obs_ = obs;
  if (obs == nullptr) return;
#define ARIESRH_STATS_BIND_FIELD(group, field, label) \
  field.Bind(obs->registry.GetCounter("ariesrh_" #field, labels)->cell());
  ARIESRH_STATS_FIELDS(ARIESRH_STATS_BIND_FIELD)
#undef ARIESRH_STATS_BIND_FIELD
}

Stats Stats::Totals(const obs::MetricsRegistry& registry) {
  Stats totals;
#define ARIESRH_STATS_SUM_FIELD(group, field, label) \
  totals.field = registry.SumCounters("ariesrh_" #field);
  ARIESRH_STATS_FIELDS(ARIESRH_STATS_SUM_FIELD)
#undef ARIESRH_STATS_SUM_FIELD
  return totals;
}

obs::EventTrace* Stats::trace() const {
  return obs_ != nullptr ? &obs_->trace : nullptr;
}

obs::MetricsRegistry* Stats::registry() const {
  return obs_ != nullptr ? &obs_->registry : nullptr;
}

}  // namespace ariesrh

#include "cluster/job.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "workload/convergence.hpp"

namespace themis::cluster {

std::string
jobKindName(JobKind kind)
{
    return kind == JobKind::Training ? "train" : "infer";
}

JobSpec
JobSpec::training(workload::ModelGraph model, int iterations,
                  TimeNs arrival, int tier)
{
    JobSpec spec;
    spec.kind = JobKind::Training;
    spec.model = std::move(model);
    spec.iterations = iterations;
    spec.arrival = arrival;
    spec.priority_tier = tier;
    return spec;
}

JobSpec
JobSpec::periodicInference(Bytes request_size, TimeNs period,
                           TimeNs deadline, TimeNs arrival, int tier)
{
    JobSpec spec;
    spec.kind = JobKind::PeriodicInference;
    spec.request_size = request_size;
    spec.period = period;
    spec.deadline = deadline;
    spec.arrival = arrival;
    spec.priority_tier = tier;
    return spec;
}

std::string
JobSpec::label() const
{
    if (!name.empty())
        return name;
    std::ostringstream oss;
    if (kind == JobKind::Training) {
        oss << "train:"
            << (model.name.empty() ? "custom" : model.name);
    } else {
        oss << "infer:" << fmtBytes(request_size);
    }
    return oss.str();
}

void
JobSpec::validate() const
{
    if (arrival < 0.0)
        THEMIS_FATAL("job '" << label() << "': negative arrival time "
                             << arrival);
    if (priority_tier >= kNumPriorityTiers)
        THEMIS_FATAL("job '" << label() << "': priority tier "
                             << priority_tier << " outside [0, "
                             << kNumPriorityTiers << ")");
    if (kind == JobKind::Training) {
        if (model.layers.empty())
            THEMIS_FATAL("training job '" << label()
                                          << "' has no layers");
        if (iterations < 1 || iterations > workload::kMaxIterations)
            THEMIS_FATAL("training job '"
                         << label() << "': iterations must be in [1, "
                         << workload::kMaxIterations << "], got "
                         << iterations);
        return;
    }
    if (request_size <= 0.0)
        THEMIS_FATAL("periodic job '" << label()
                                      << "': request size must be "
                                         "positive, got "
                                      << request_size);
    if (period <= 0.0)
        THEMIS_FATAL("periodic job '" << label()
                                      << "': period must be positive, "
                                         "got "
                                      << period);
    if (deadline < 0.0)
        THEMIS_FATAL("periodic job '" << label()
                                      << "': negative deadline "
                                      << deadline);
    if (max_requests < 0)
        THEMIS_FATAL("periodic job '" << label()
                                      << "': negative request count "
                                      << max_requests);
}

} // namespace themis::cluster

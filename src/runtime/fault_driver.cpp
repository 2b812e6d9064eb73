#include "runtime/fault_driver.hpp"

#include <algorithm>

#include <cstdio>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "runtime/dimension_engine.hpp"
#include "stats/telemetry/telemetry.hpp"
#include "stats/trace_writer.hpp"
#include "stats/utilization_tracker.hpp"

namespace themis::runtime {

FaultDriver::FaultDriver(sim::EventQueue& queue,
                         const sim::FaultTimeline& timeline,
                         std::vector<DimensionEngine*> engines,
                         stats::UtilizationTracker* tracker)
    : queue_(queue), timeline_(timeline), engines_(std::move(engines)),
      tracker_(tracker), dims_(engines_.size())
{
    THEMIS_ASSERT(!engines_.empty(), "fault driver with no engines");
    for (auto* e : engines_)
        THEMIS_ASSERT(e != nullptr, "null engine");
    timeline_.validateForDims(static_cast<int>(engines_.size()));
    std::vector<int> links_per_dim;
    links_per_dim.reserve(engines_.size());
    base_bw_.reserve(engines_.size());
    for (const auto* e : engines_) {
        base_bw_.push_back(e->channel().capacity());
        links_per_dim.push_back(e->config().links_per_npu);
    }
    timeline_.validateLinks(links_per_dim);
}

void
FaultDriver::setCapacityListener(CapacityListener listener)
{
    capacity_listener_ = std::move(listener);
}

void
FaultDriver::setTelemetry(stats::telemetry::Telemetry* telemetry)
{
    telemetry_ = telemetry;
}

double
FaultDriver::linkShare(int dim) const
{
    const DimState& st = dims_[static_cast<std::size_t>(dim)];
    if (st.links_down == 0)
        return 1.0;
    const int links =
        engines_[static_cast<std::size_t>(dim)]->config().links_per_npu;
    // A full outage holds the engine (syncLinkState); clamping to one
    // surviving link keeps the channel capacity and the planning
    // factor positive, and is irrelevant while nothing can start.
    const int up = std::max(links - st.links_down, 1);
    return static_cast<double>(up) / static_cast<double>(links);
}

double
FaultDriver::planningFactor(int dim) const
{
    const DimState& st = dims_[static_cast<std::size_t>(dim)];
    double f = st.straggler;
    for (const auto& [pair, factor] : st.degrades)
        f *= factor;
    return f * linkShare(dim);
}

void
FaultDriver::syncLinkState(int dim)
{
    const DimState& st = dims_[static_cast<std::size_t>(dim)];
    DimensionEngine* engine = engines_[static_cast<std::size_t>(dim)];
    const int links = engine->config().links_per_npu;
    const bool want_down =
        st.flap_depth > 0 || (links > 0 && st.links_down >= links);
    if (want_down != engine->linkDown())
        engine->setLinkDown(want_down);
}

void
FaultDriver::refreshCapacity(int dim)
{
    const DimState& st = dims_[static_cast<std::size_t>(dim)];
    Bandwidth eff = base_bw_[static_cast<std::size_t>(dim)];
    eff *= st.straggler;
    for (const auto& [pair, factor] : st.degrades)
        eff *= factor;
    eff *= linkShare(dim);
    engines_[static_cast<std::size_t>(dim)]->channel().setCapacity(
        queue_.now(), eff);
    if (tracker_ != nullptr)
        tracker_->recordCapacityEvent(static_cast<std::size_t>(dim));
}

void
FaultDriver::apply(const sim::FaultEvent& e)
{
    DimState& st = dims_[static_cast<std::size_t>(e.dim)];
    DimensionEngine* engine = engines_[static_cast<std::size_t>(e.dim)];
    logDebug("fault t=", queue_.now(), " (abs ", e.at, ") dim ",
             e.dim + 1, " ", sim::faultKindName(e.kind));
    if (telemetry_ != nullptr) {
        // Observational only: the instant sits at the event's
        // absolute timeline position (lazy application may apply it
        // later in queue time, but the timeline edge is the fact).
        telemetry_->metrics.counter("fault.events_applied").add();
        telemetry_->recorder.record(stats::telemetry::FlightEvent{
            e.at, stats::telemetry::FlightKind::FaultEvent, e.dim,
            static_cast<int>(e.kind), e.factor});
        if (telemetry_->trace != nullptr) {
            char label[64];
            std::snprintf(label, sizeof(label), "fault: %s dim%d",
                          sim::faultKindName(e.kind), e.dim + 1);
            telemetry_->trace->instantAbs(
                stats::TraceWriter::kRunPid,
                stats::TraceWriter::kFaultTid, label, e.at);
        }
    }
    switch (e.kind) {
    case sim::FaultKind::DegradeStart:
        st.degrades.emplace_back(e.pair, e.factor);
        refreshCapacity(e.dim);
        if (capacity_listener_)
            capacity_listener_(e.dim);
        break;
    case sim::FaultKind::DegradeEnd: {
        const auto it = std::find_if(
            st.degrades.begin(), st.degrades.end(),
            [&](const auto& d) { return d.first == e.pair; });
        THEMIS_ASSERT(it != st.degrades.end(),
                      "degrade-end without matching start");
        st.degrades.erase(it);
        refreshCapacity(e.dim);
        if (capacity_listener_)
            capacity_listener_(e.dim);
        break;
    }
    case sim::FaultKind::StragglerStart:
        st.straggler *= e.factor;
        refreshCapacity(e.dim);
        if (capacity_listener_)
            capacity_listener_(e.dim);
        break;
    case sim::FaultKind::FlapDown:
        ++st.flap_depth;
        syncLinkState(e.dim);
        break;
    case sim::FaultKind::FlapUp:
        THEMIS_ASSERT(st.flap_depth > 0,
                      "flap-up without matching flap-down");
        // The nominal down window rides in the event's factor field;
        // recording it here (not wall-clock deltas) keeps downtime
        // accounting independent of lazy application.
        if (tracker_ != nullptr)
            tracker_->recordFlap(static_cast<std::size_t>(e.dim),
                                 e.factor);
        --st.flap_depth;
        syncLinkState(e.dim);
        break;
    case sim::FaultKind::LinkDown: {
        const int links = engine->config().links_per_npu;
        if (st.link_depth.empty())
            st.link_depth.assign(static_cast<std::size_t>(links), 0);
        if (++st.link_depth[static_cast<std::size_t>(e.link)] == 1) {
            ++st.links_down;
            // Striped transfers lose a lane: everything in flight on
            // the dim fails once and retries on the survivors' share
            // (or holds, under a full outage).
            const bool was_down = engine->linkDown();
            syncLinkState(e.dim);
            if (!was_down)
                engine->failInFlight();
            refreshCapacity(e.dim);
            if (capacity_listener_)
                capacity_listener_(e.dim);
        }
        break;
    }
    case sim::FaultKind::LinkUp: {
        THEMIS_ASSERT(!st.link_depth.empty() &&
                          st.link_depth[static_cast<std::size_t>(
                              e.link)] > 0,
                      "link-up without matching link-down");
        // Per-link downtime rolls into the dim's flap counters: the
        // nominal down window rides in the factor field, as FlapUp.
        if (tracker_ != nullptr)
            tracker_->recordFlap(static_cast<std::size_t>(e.dim),
                                 e.factor);
        if (--st.link_depth[static_cast<std::size_t>(e.link)] == 0) {
            --st.links_down;
            refreshCapacity(e.dim);
            syncLinkState(e.dim);
            if (capacity_listener_)
                capacity_listener_(e.dim);
        }
        break;
    }
    }
}

void
FaultDriver::catchUp(TimeNs abs_now)
{
    const auto& events = timeline_.events();
    while (next_ < events.size() && events[next_].at <= abs_now) {
        apply(events[next_]);
        ++next_;
    }
}

void
FaultDriver::armNext()
{
    THEMIS_ASSERT(armed_ == 0, "fault event already armed");
    const auto& events = timeline_.events();
    if (next_ >= events.size())
        return;
    // Relative (current-epoch) firing time; catchUp has applied
    // everything at or before now, so this is strictly in the future.
    const TimeNs at = events[next_].at;
    const TimeNs rel = at - base_;
    armed_ = queue_.schedule(rel, [this, at] {
        armed_ = 0;
        // base_ + (at - base_) can round below at once base_ is
        // nonzero; the timer must still apply the event it was armed
        // for, or it would re-arm at the same instant forever.
        catchUp(std::max(base_ + queue_.now(), at));
        armNext();
    });
}

void
FaultDriver::onWindowStart(TimeNs now)
{
    THEMIS_ASSERT(!window_open_, "fault window already open");
    window_open_ = true;
    catchUp(base_ + now);
    armNext();
}

void
FaultDriver::onWindowEnd(TimeNs now)
{
    (void)now;
    THEMIS_ASSERT(window_open_, "fault window not open");
    window_open_ = false;
    if (armed_ != 0) {
        queue_.cancel(armed_);
        armed_ = 0;
    }
}

void
FaultDriver::onEpochRebase(TimeNs elapsed)
{
    THEMIS_ASSERT(armed_ == 0 && !window_open_,
                  "epoch rebase with the fault window open");
    base_ += elapsed;
}

void
FaultDriver::skipReplayedEpoch(TimeNs d)
{
    THEMIS_ASSERT(armed_ == 0 && !window_open_,
                  "replay skip with the fault window open");
    base_ += d;
}

} // namespace themis::runtime

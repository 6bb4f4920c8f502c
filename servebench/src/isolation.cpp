#include "isolation.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/batch_eval.h"
#include "net/wire.h"
#include "serve/answer_cache.h"

namespace servebench {
namespace {

/// Frames replayed through the wire codec.
constexpr std::size_t kWireFrames = 200'000;
/// Answers replayed through the cache and the evaluation path.
constexpr std::size_t kReplayAnswers = 500'000;
/// Frames encoded into one buffer before it is decoded back.
constexpr std::size_t kWireChunk = 1'024;
/// Lanes per cache/evaluation call: the engine hands its workers dispatch
/// groups of at most eight batches, one lane each.
constexpr std::size_t kLanes = 8;

double ns_per(Clock::duration total, std::uint64_t count) {
  if (count == 0) return 0.0;
  return std::chrono::duration<double, std::nano>(total).count() /
         static_cast<double>(count);
}

/// The ok answers, stably grouped by epoch so a cache replay can follow the
/// live generation bumps in order.
std::vector<const Sample*> ok_answers(const std::vector<Sample>& samples,
                                      std::size_t cap) {
  std::vector<const Sample*> stream;
  for (const auto& s : samples) {
    if (stream.size() >= cap) break;
    if (s.status == 0) stream.push_back(&s);
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->epoch < b->epoch;
                   });
  return stream;
}

struct WireTimes {
  Clock::duration encode{};
  Clock::duration decode{};
  std::uint64_t pairs = 0;
  std::uint64_t mismatches = 0;
};

/// Encodes each answer's request and response frame, then decodes them back.
WireTimes wire_loop(const std::vector<const Sample*>& stream) {
  WireTimes times;
  std::vector<net::RequestFrame> requests(kWireChunk);
  std::vector<net::ResponseFrame> responses(kWireChunk);
  std::string buffer;
  for (std::size_t begin = 0; begin < stream.size(); begin += kWireChunk) {
    const std::size_t count = std::min(kWireChunk, stream.size() - begin);
    for (std::size_t i = 0; i < count; ++i) {
      const Sample& s = *stream[begin + i];
      requests[i].request_id = begin + i + 1;
      requests[i].item = s.item;
      requests[i].tenant = "bench";
      responses[i].request_id = begin + i + 1;
      responses[i].status = net::WireStatus::kOk;
      responses[i].answer = s.answer;
      responses[i].epoch_id = s.epoch;
    }
    buffer.clear();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      net::encode(requests[i], buffer);
      net::encode(responses[i], buffer);
    }
    const auto t1 = Clock::now();
    std::string_view view(buffer);
    net::RequestFrame request;
    net::ResponseFrame response;
    for (std::size_t i = 0; i < count; ++i) {
      view.remove_prefix(net::decode(view, request));
      view.remove_prefix(net::decode(view, response));
      if (request.item != stream[begin + i]->item ||
          response.answer != stream[begin + i]->answer) {
        ++times.mismatches;
      }
    }
    const auto t2 = Clock::now();
    times.encode += t1 - t0;
    times.decode += t2 - t1;
    times.pairs += count;
  }
  return times;
}

}  // namespace

void run_isolation(const std::vector<Sample>& samples,
                   const EpochLookup& epoch_of, PhaseResult& result) {
  const auto wire_stream = ok_answers(samples, kWireFrames);
  const WireTimes wire = wire_loop(wire_stream);
  result.layers["net.wire.encode_ns"] = ns_per(wire.encode, wire.pairs);
  result.layers["net.wire.decode_ns"] = ns_per(wire.decode, wire.pairs);

  // Cache then evaluation, chunk by chunk, the way a worker runs a group:
  // get_batch, gather + classify the misses, put_batch the fresh answers.
  const auto stream = ok_answers(samples, kReplayAnswers);
  metrics::Registry registry;
  serve::AnswerCache cache(default_engine_config().cache, registry);
  std::map<std::uint32_t, std::unique_ptr<core::BatchEval>> evaluators;
  core::BatchScratch scratch;
  std::vector<std::size_t> lanes;
  std::vector<std::optional<serve::AnswerCache::Hit>> hits;
  std::vector<std::size_t> miss_items;
  std::vector<const Sample*> miss_samples;
  std::vector<const Sample*> all_misses;
  std::vector<serve::AnswerCache::PutItem> puts;
  Clock::duration get_time{};
  Clock::duration put_time{};
  Clock::duration gather_time{};
  Clock::duration classify_time{};
  std::uint64_t get_lanes = 0;
  std::uint64_t eval_lanes = 0;
  std::uint64_t mismatches = wire.mismatches;

  std::size_t i = 0;
  while (i < stream.size()) {
    const std::uint32_t epoch = stream[i]->epoch;
    cache.bump_generation(epoch);
    lanes.clear();
    std::size_t end = i;
    while (end < stream.size() && lanes.size() < kLanes &&
           stream[end]->epoch == epoch) {
      lanes.push_back(stream[end]->item);
      ++end;
    }
    const auto t0 = Clock::now();
    cache.get_batch(lanes, hits);
    get_time += Clock::now() - t0;
    get_lanes += lanes.size();

    miss_items.clear();
    miss_samples.clear();
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      const Sample& s = *stream[i + lane];
      if (hits[lane].has_value()) {
        if (hits[lane]->answer != s.answer) ++mismatches;
      } else {
        miss_items.push_back(lanes[lane]);
        miss_samples.push_back(&s);
      }
    }
    if (!miss_items.empty()) {
      auto& evaluator = evaluators[epoch];
      if (evaluator == nullptr) {
        const EpochRef ref = epoch_of(epoch);
        evaluator = std::make_unique<core::BatchEval>(*ref.lca, *ref.run);
      }
      const auto g0 = Clock::now();
      evaluator->gather(miss_items, scratch);
      const auto g1 = Clock::now();
      evaluator->classify(miss_items, scratch);
      const auto g2 = Clock::now();
      gather_time += g1 - g0;
      classify_time += g2 - g1;
      eval_lanes += miss_items.size();

      puts.clear();
      for (std::size_t j = 0; j < miss_items.size(); ++j) {
        const bool answer = scratch.answers[j] != 0;
        if (scratch.status[j] != core::LaneStatus::kOk ||
            answer != miss_samples[j]->answer) {
          ++mismatches;
        }
        puts.push_back(serve::AnswerCache::PutItem{
            miss_items[j],
            serve::AnswerCache::Entry{answer, true, scratch.large[j] != 0,
                                      scratch.profits[j], scratch.weights[j],
                                      epoch}});
      }
      const auto p0 = Clock::now();
      cache.put_batch(puts);
      put_time += Clock::now() - p0;
      all_misses.insert(all_misses.end(), miss_samples.begin(),
                        miss_samples.end());
    }
    i = end;
  }
  result.layers["serve.cache.get_batch_ns"] = ns_per(get_time, get_lanes);
  result.layers["serve.cache.put_batch_ns"] = ns_per(put_time, eval_lanes);
  result.layers["core.batch_eval.gather_ns"] = ns_per(gather_time, eval_lanes);
  result.layers["core.batch_eval.classify_ns"] =
      ns_per(classify_time, eval_lanes);

  // The per-request answer path over the same miss stream, one epoch's run
  // at a time.
  Clock::duration answer_time{};
  std::size_t k = 0;
  while (k < all_misses.size()) {
    const std::uint32_t epoch = all_misses[k]->epoch;
    const EpochRef ref = epoch_of(epoch);
    std::size_t end = k;
    while (end < all_misses.size() && all_misses[end]->epoch == epoch) ++end;
    std::uint64_t differing = 0;
    const auto t0 = Clock::now();
    for (std::size_t m = k; m < end; ++m) {
      const Sample& s = *all_misses[m];
      differing += ref.lca->answer_from(*ref.run, s.item) != s.answer ? 1 : 0;
    }
    answer_time += Clock::now() - t0;
    mismatches += differing;
    k = end;
  }
  result.layers["core.lca_kp.answer_from_ns"] =
      ns_per(answer_time, all_misses.size());

  result.check(mismatches == 0,
               "isolation loops: " + std::to_string(mismatches) +
                   " isolated answers differ from the live ones");
}

}  // namespace servebench

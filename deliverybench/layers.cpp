#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>

#include "common/hash.hpp"
#include "core/cache.hpp"
#include "core/registry.hpp"
#include "core/sequencer.hpp"
#include "oracle.hpp"
#include "proto/codec.hpp"
#include "transport/wire.hpp"
#include "wal/env.hpp"
#include "wal/log.hpp"

namespace deliverybench {
namespace {

constexpr std::size_t kReplayMessages = 4096;
constexpr int kPasses = 7;

using Clock = std::chrono::steady_clock;

/// Median over kPasses of (pass time / ops). `prepare` runs untimed before
/// each pass and may rebuild the state the pass consumes; `pass` returns the
/// number of operations it did.
double MedianNsPerOp(const std::function<void()>& prepare,
                     const std::function<std::size_t()>& pass) {
  std::vector<double> perOp;
  for (int i = 0; i < kPasses; ++i) {
    prepare();
    const auto t0 = Clock::now();
    const std::size_t ops = pass();
    const auto t1 = Clock::now();
    if (ops == 0) return 0;
    perOp.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                    static_cast<double>(ops));
  }
  std::sort(perOp.begin(), perOp.end());
  return perOp[perOp.size() / 2];
}

/// The run's first kReplayMessages publications: same seed, same publish
/// order, same payload bytes.
std::vector<md::Message> GenerateMessages(const ReplaySpec& spec) {
  Inputs inputs(spec.seed, spec.payloadBytes);
  std::vector<std::uint64_t> seq(kTopics, 0);
  std::vector<md::Message> out;
  out.reserve(kReplayMessages);
  for (std::size_t i = 0; i < kReplayMessages; ++i) {
    const std::uint32_t topic = inputs.NextTopic();
    PayloadHeader h{inputs.nonce(), topic, Phase::kOpen, ++seq[topic], 0};
    md::Message m;
    m.topic = TopicName(topic);
    m.payload = inputs.MakePayload(h);
    m.epoch = 1;
    m.seq = h.seq;
    m.pubId = {inputs.nonce(), i + 1};
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

std::vector<Metric> ReplayLayers(const ReplaySpec& spec) {
  std::vector<Metric> out;
  const std::vector<md::Message> msgs = GenerateMessages(spec);
  const auto noop = [] {};

  // --- proto -----------------------------------------------------------------
  std::vector<md::Frame> publishes;
  std::vector<md::Frame> delivers;
  for (const auto& m : msgs) {
    publishes.emplace_back(md::PublishFrame{m.topic, m.payload, m.pubId, true, 0});
    delivers.emplace_back(md::DeliverFrame{m});
  }
  md::Bytes scratch;
  out.emplace_back("proto.encode_publish_ns", MedianNsPerOp(noop, [&] {
    for (const auto& f : publishes) {
      scratch.clear();
      md::EncodeFramed(f, scratch);
    }
    return publishes.size();
  }));
  std::vector<std::shared_ptr<const md::Bytes>> wires;
  md::Bytes stream;
  for (const auto& f : delivers) {
    auto wire = std::make_shared<md::Bytes>();
    md::EncodeFramed(f, *wire);
    stream.insert(stream.end(), wire->begin(), wire->end());
    wires.push_back(std::move(wire));
  }
  out.emplace_back("proto.encode_deliver_ns", MedianNsPerOp(noop, [&] {
    for (const auto& f : delivers) {
      scratch.clear();
      md::EncodeFramed(f, scratch);
    }
    return delivers.size();
  }));
  md::ByteQueue in;
  out.emplace_back("proto.extract_decode_ns", MedianNsPerOp(
      [&] {
        in.Clear();
        in.Append(md::BytesView(stream));
      },
      [&] {
        std::size_t frames = 0;
        while (true) {
          md::FrameExtractResult r = md::ExtractFrame(in);
          if (!r.frame) break;
          ++frames;
        }
        return frames == msgs.size() ? frames : 0;
      }));

  // --- core: sequencer, cache, registry ------------------------------------
  // The program's default grouping (CacheConfig::topicGroups).
  const std::uint32_t groupCount = md::core::CacheConfig{}.topicGroups;
  std::vector<std::uint32_t> groups;
  for (const auto& m : msgs) groups.push_back(md::TopicGroupOf(m.topic, groupCount));
  std::unique_ptr<md::core::Sequencer> sequencer;
  out.emplace_back("core.sequencer_assign_ns", MedianNsPerOp(
      [&] {
        sequencer = std::make_unique<md::core::Sequencer>();
        for (std::uint32_t g = 0; g < groupCount; ++g) sequencer->BeginEpoch(g, 1);
      },
      [&] {
        for (std::size_t i = 0; i < msgs.size(); ++i) {
          if (!sequencer->Assign(groups[i], msgs[i].topic)) return std::size_t{0};
        }
        return msgs.size();
      }));

  std::unique_ptr<md::core::Cache> cache;
  out.emplace_back("core.cache_append_ns", MedianNsPerOp(
      [&] { cache = std::make_unique<md::core::Cache>(); },
      [&] {
        for (const auto& m : msgs) cache->Append(m);
        return msgs.size();
      }));
  // The cache now holds the replay's messages; a resuming subscriber asks
  // for the last resumeGap of each of its topics.
  std::size_t fetched = 0;
  const std::size_t gap = std::max<std::size_t>(spec.resumeGap, 1);
  out.emplace_back("core.cache_get_after_ns_per_msg", MedianNsPerOp(
      [&] { fetched = 0; },
      [&] {
        for (std::uint32_t t = 0; t < kTopics; ++t) {
          const std::string name = TopicName(t);
          const auto last = cache->LastPos(name);
          if (!last) continue;
          const std::uint64_t from = last->seq > gap ? last->seq - gap : 0;
          fetched += cache->GetAfter(name, {last->epoch, from}).size();
        }
        return fetched;
      }));

  // Subscriber populations repeat the run's topic sets over 64 handles so a
  // pass is long enough to time.
  constexpr md::core::ClientHandle kHandles = 64;
  std::vector<std::string> names(kTopics);
  for (std::uint32_t t = 0; t < kTopics; ++t) names[t] = TopicName(t);
  const auto subsOf = [&](md::core::ClientHandle h) -> const std::vector<std::uint32_t>& {
    return spec.subscriptions[h % spec.subscriptions.size()];
  };
  std::unique_ptr<md::core::SubscriptionRegistry> registry;
  std::size_t subscribeOps = 0;
  out.emplace_back("core.registry_subscribe_ns", MedianNsPerOp(
      [&] { registry = std::make_unique<md::core::SubscriptionRegistry>(); },
      [&] {
        subscribeOps = 0;
        for (md::core::ClientHandle h = 1; h <= kHandles; ++h) {
          for (std::uint32_t t : subsOf(h)) {
            registry->Subscribe(names[t], h);
            ++subscribeOps;
          }
        }
        return subscribeOps;
      }));
  out.emplace_back("core.registry_snapshot_ns", MedianNsPerOp(noop, [&] {
    for (const auto& m : msgs) {
      if (registry->Snapshot(m.topic)) ++fetched;  // keeps the read live
    }
    return msgs.size();
  }));
  out.emplace_back("core.registry_drop_client_ns", MedianNsPerOp(
      [&] {
        registry = std::make_unique<md::core::SubscriptionRegistry>();
        for (md::core::ClientHandle h = 1; h <= kHandles; ++h) {
          for (std::uint32_t t : subsOf(h)) registry->Subscribe(names[t], h);
        }
      },
      [&] {
        for (md::core::ClientHandle h = 1; h <= kHandles; ++h) {
          (void)registry->DropClient(h);
        }
        return static_cast<std::size_t>(kHandles);
      }));

  // --- transport: one subscriber's send queue --------------------------------
  md::SendQueue queue;
  out.emplace_back("transport.sendqueue_append_consume_ns",
                   MedianNsPerOp(noop, [&] {
                     constexpr std::size_t kBurst = 16;
                     for (std::size_t i = 0; i < wires.size(); i += kBurst) {
                       const std::size_t end = std::min(i + kBurst, wires.size());
                       for (std::size_t j = i; j < end; ++j) queue.AppendShared(wires[j]);
                       queue.Consume(queue.size());
                     }
                     return wires.size();
                   }));

  // --- wal: append under fsync policy os -------------------------------------
  std::error_code ec;
  std::filesystem::remove_all(spec.walDir, ec);
  std::filesystem::create_directories(spec.walDir, ec);
  {
    md::wal::WalConfig cfg;
    cfg.dir = spec.walDir;
    cfg.fsync = md::wal::FsyncPolicy::kOs;
    md::wal::Log log(md::wal::PosixEnv::Instance(), cfg);
    md::TimePoint now = 1;
    out.emplace_back("wal.append_ns", MedianNsPerOp(noop, [&] {
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        if (!log.Append(groups[i], msgs[i], ++now).ok()) return std::size_t{0};
      }
      return msgs.size();
    }));
    log.Close();
  }
  std::filesystem::remove_all(spec.walDir, ec);
  return out;
}

}  // namespace deliverybench

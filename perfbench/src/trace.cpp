#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void Tracer::record(const Span& span) {
  Buffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(span);
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

void Tracer::clear() {
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      buffer->spans.clear();
    }
  }
  for (ContextShard& shard : contexts_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.queues.clear();
  }
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("id\tparent\trequest\tname\tstart_ns\tend_ns\n", out);
  for (const Span& s : collect()) {
    std::fprintf(out, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

void Tracer::push_context(std::uint64_t key, SpanContext context) {
  ContextShard& shard = contexts_[key % kContextShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.queues[key].push_back(context);
}

SpanContext Tracer::pop_context(std::uint64_t key) {
  ContextShard& shard = contexts_[key % kContextShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.queues.find(key);
  if (it == shard.queues.end()) return {};
  const SpanContext context = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) shard.queues.erase(it);
  return context;
}

}  // namespace perfbench

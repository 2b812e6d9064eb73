/**
 * @file
 * The Splitter component of Themis (paper Fig 6): divides a collective
 * into equally-sized chunks that the scheduler treats independently.
 */

#ifndef THEMIS_CORE_SPLITTER_HPP
#define THEMIS_CORE_SPLITTER_HPP

#include <vector>

#include "common/units.hpp"

namespace themis {

/**
 * Most chunks one collective may be split into. Every chunk becomes a
 * chunk op per stage, each held by its dimension engine until it
 * finishes, so an unbounded count exhausts memory; the paper's
 * figures use at most 512.
 */
constexpr int kMaxChunksPerCollective = 65536;

/**
 * Throw ConfigError unless 1 <= @p chunks <= kMaxChunksPerCollective.
 * splitCollective applies it to every collective; front ends that
 * want to reject a request before simulating call it directly.
 */
void validateChunkCount(int chunks);

/**
 * Split a per-NPU collective of @p size bytes into @p chunks equal
 * chunks. Throws ConfigError on a non-positive size and on a chunk
 * count validateChunkCount rejects.
 */
std::vector<Bytes> splitCollective(Bytes size, int chunks);

} // namespace themis

#endif // THEMIS_CORE_SPLITTER_HPP

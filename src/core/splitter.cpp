#include "core/splitter.hpp"

#include "common/error.hpp"

namespace themis {

void
validateChunkCount(int chunks)
{
    if (chunks < 1)
        THEMIS_FATAL("chunks per collective must be >= 1, got " << chunks);
    if (chunks > kMaxChunksPerCollective)
        THEMIS_FATAL("chunks per collective must be <= "
                     << kMaxChunksPerCollective << ", got " << chunks);
}

std::vector<Bytes>
splitCollective(Bytes size, int chunks)
{
    if (size <= 0.0)
        THEMIS_FATAL("collective size must be positive, got " << size);
    validateChunkCount(chunks);
    return std::vector<Bytes>(static_cast<std::size_t>(chunks),
                              size / chunks);
}

} // namespace themis

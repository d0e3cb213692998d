#include "workload/memory.hh"

namespace gdiff {
namespace workload {

Memory::Page *
Memory::findPage(uint64_t pageNo) const
{
    auto it = pages.find(pageNo);
    if (it == pages.end())
        return nullptr;
    cachedPageNo = pageNo;
    cachedPage = it->second.get();
    return cachedPage;
}

Memory::Page *
Memory::touchPage(uint64_t pageNo)
{
    auto &page = pages[pageNo];
    if (!page)
        page = std::make_unique<Page>();
    cachedPageNo = pageNo;
    cachedPage = page.get();
    return cachedPage;
}

} // namespace workload
} // namespace gdiff

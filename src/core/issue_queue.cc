/**
 * @file
 * Issue queue implementation.
 */

#include "core/issue_queue.hh"

#include "common/logging.hh"

namespace dmdc
{

IssueQueue::IssueQueue(unsigned capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("issue queue capacity must be non-zero");
}

void
IssueQueue::insert(DynInst *inst)
{
    if (full())
        panic("issue queue insert on full queue");
    if (inst->seq <= youngest_)
        panic("issue queue insertion out of age order");
    youngest_ = inst->seq;
    ++size_;
    inst->inIssueQueue = true;
}

void
IssueQueue::remove(DynInst *inst)
{
    if (!inst->inIssueQueue)
        panic("issue queue remove of an absent instruction");
    --size_;
    inst->inIssueQueue = false;
}

} // namespace dmdc

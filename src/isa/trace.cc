#include "isa/trace.hh"

#include "ckpt/serial.hh"

namespace emc
{

void
TraceSource::ckptSer(ckpt::Ar &)
{
    throw ckpt::Error("this trace source is not checkpointable");
}

void
VectorTrace::ckptSer(ckpt::Ar &ar)
{
    ar.io(pos_);
}

} // namespace emc

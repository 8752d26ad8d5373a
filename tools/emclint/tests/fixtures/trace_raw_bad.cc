// Fixture: trace-raw-io — trace-container bytes are parsed only by
// src/trace/; everything else must go through trace::Reader /
// probeFile.

namespace fx
{

struct HomebrewTraceReader
{
    void openByHand()
    {
        f_ = fopen("dump.emct", "rb");  // [expect: trace-raw-io]
    }

    void readRecordsByHand(DynUop *buf, unsigned long n)
    {
        fread(buf, sizeof(DynUop), n, f_);  // [expect: trace-raw-io]
    }

    void writeRecordsByHand(const DynUop *buf, unsigned long n)
    {
        fwrite(buf, sizeof(DynUop), n, f_);  // [expect: trace-raw-io]
    }

    bool sniffMagic(const char *head)
    {
        return memcmp(head, "EMCT", 4) == 0;  // [expect: trace-raw-io]
    }

    // Non-trace file I/O stays legal: no .emct path, no DynUop
    // payload, no magic literal.
    void writeLog(const char *line)
    {
        FILE *log = fopen("run.log", "a");
        fwrite(line, 1, 4, log);
    }

    FILE *f_ = nullptr;
};

} // namespace fx

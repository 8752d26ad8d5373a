// Fixture: process-spawn — raw process management, allowed nowhere.

namespace fx
{

inline int launchHelper(const char *cmd)
{
    return system(cmd);  // [expect: process-spawn]
}

inline int forkWorker()
{
    return fork();  // [expect: process-spawn]
}

} // namespace fx

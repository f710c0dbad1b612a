// Fixture: a function-local static inside an ensureBuiltin*()
// function. Registration finishes during static initialisation, so the
// name blesses nothing — project rule `shared-mutable-state`.
namespace nmapsim {

void
ensureBuiltinWidgets()
{
    static bool registered = false;
    registered = true;
}

} // namespace nmapsim

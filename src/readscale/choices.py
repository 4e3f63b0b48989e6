"""Choice lists that the command line offers and the library checks.

They live apart from :mod:`readscale.css` and :mod:`readscale.topz`, which
load numpy, so that the command-line parser can be built without it.
"""

# characteristic scores truncate at or above (ge), or strictly above (gt), the last score
TRUNCATION_RULES = ("ge", "gt")
# a top-z% cut takes exactly floor(zN/100) values by rank, or every value at the threshold
TIE_RULES = ("rank", "threshold")

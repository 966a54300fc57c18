package serve

import _ "configwall/internal/store"

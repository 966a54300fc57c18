package main

import _ "configwall/internal/store"
